//! Reports produced by the flow simulator.

use std::fmt;

use crate::error::{CoreError, CoreResult};
use crate::frame::{Reader, Wire};
use crate::graph::StageId;
use crate::obs::Alert;
use crate::units::{DataVolume, SimDuration, SimTime};

/// A counter a snapshot stores as one `u64` word.
trait Word {
    fn word(&self) -> u64;
    fn from_word(word: u64) -> Self;
}

macro_rules! word {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl Word for $ty {
            fn word(&self) -> u64 {
                $to(*self)
            }
            fn from_word(word: u64) -> Self {
                $from(word)
            }
        }
    )*};
}

word! {
    u64: |v| v, |w| w;
    usize: |v| v as u64, |w| w as usize;
    DataVolume: DataVolume::bytes, DataVolume::from_bytes;
    SimDuration: SimDuration::as_micros, SimDuration::from_micros;
    SimTime: SimTime::as_micros, SimTime::from_micros;
}

/// Declares [`StageMetrics`] and, from the same field list, the two
/// directions of its snapshot words, their count and their names — so a
/// counter added to the struct is a counter that survives a resume and
/// appears in the JSON report. `name` is resolved at report time and is not
/// run state.
macro_rules! stage_metrics {
    (
        $(#[$meta:meta])*
        pub struct StageMetrics {
            pub name: String,
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct StageMetrics {
            pub name: String,
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl StageMetrics {
            /// The counters' field names, in declaration order: the keys
            /// of a stage row in [`SimReport::to_json`].
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
            const COUNTERS: usize = Self::FIELDS.len();

            fn words(&self) -> [u64; Self::COUNTERS] {
                [$(self.$field.word()),*]
            }

            fn from_words(words: [u64; Self::COUNTERS]) -> Self {
                let mut words = words.into_iter();
                StageMetrics {
                    name: String::new(),
                    $($field: Word::from_word(words.next().expect("one word per counter")),)*
                }
            }
        }
    };
}

stage_metrics! {
    /// Per-stage counters accumulated during a simulation run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct StageMetrics {
        pub name: String,
        pub blocks_in: u64,
        pub volume_in: DataVolume,
        pub blocks_out: u64,
        pub volume_out: DataVolume,
        /// Total time the stage spent actively working (summed over tasks).
        pub busy: SimDuration,
        /// High-water marks of the stage's input queue.
        pub max_queue_blocks: usize,
        pub max_queue_volume: DataVolume,
        /// Volume still queued when the simulation ended (should be zero for a
        /// flow that "keeps up").
        pub final_queue_volume: DataVolume,
        /// Simulated time of the stage's last completion.
        pub completed_at: SimTime,
        /// Transfer attempts re-issued after an injected fault.
        pub retries: u64,
        /// Injected fault events that affected this stage's execution.
        pub faults: u64,
        /// Blocks abandoned after the retry budget was exhausted.
        pub blocks_failed: u64,
        /// Volume re-sent by retries (each retry retransmits the full block).
        pub volume_retransmitted: DataVolume,
        /// Volume of abandoned blocks.
        pub volume_lost: DataVolume,
        /// Tasks of this stage killed mid-flight by a node crash or pool outage.
        pub crashes: u64,
        /// Useful work destroyed by crashes (progress past the last checkpoint).
        pub work_lost: SimDuration,
        /// Work re-done after requeue to make up for `work_lost`.
        pub work_replayed: SimDuration,
        /// Extra runtime spent writing checkpoints.
        pub checkpoint_overhead: SimDuration,
        /// Taint units injected here by silent corruption (transfers that
        /// delivered a tainted block).
        pub corrupt_injected: u64,
        /// Taint units caught by this stage — by an arrival integrity check, or
        /// contained when a tainted block was destroyed in transit.
        pub corrupt_detected: u64,
        /// Taint units that arrived at this stage unchecked — at a sink this is
        /// corrupted data served to consumers.
        pub corrupt_escaped: u64,
        /// Blocks quarantined at this stage instead of flowing on.
        pub quarantined: u64,
        /// Blocks re-enqueued at this stage by lineage-driven reprocessing.
        pub reprocessed_blocks: u64,
        /// Compute time spent on arrival integrity checks.
        pub verify_overhead: SimDuration,
    }
}

// The bitmap is a `u32`, and `load` shifts it by the count.
const _: () = assert!(StageMetrics::COUNTERS < u32::BITS as usize);

impl StageMetrics {
    /// The snapshot bytes of one stage's counters: a `u32` bitmap of the
    /// nonzero ones, then only those, as `u64` words in declaration order,
    /// each through [`Wire`] and so LEB128. Most counters are zero for most
    /// of a run and the rest are small, and snapshot size is what a
    /// journaled run pays per frame. The bitmap is this type's own layout,
    /// not a [`Wire`] mode.
    fn save(&self, out: &mut Vec<u8>) {
        let words = self.words();
        let mask = (0..Self::COUNTERS).filter(|&i| words[i] != 0).fold(0u32, |m, i| m | 1 << i);
        mask.put(out);
        for word in words.into_iter().filter(|&w| w != 0) {
            word.put(out);
        }
    }

    fn load(r: &mut Reader) -> CoreResult<Self> {
        let mask = u32::get(r)?;
        if mask >> Self::COUNTERS != 0 {
            return Err(CoreError::CorruptJournal {
                detail: format!("metrics bitmap {mask:#x} has unknown fields set"),
            });
        }
        let mut words = [0u64; Self::COUNTERS];
        for (i, word) in words.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *word = u64::get(r)?;
            }
        }
        Ok(Self::from_words(words))
    }

    pub(crate) fn note_queue(&mut self, blocks: usize, volume: DataVolume) {
        self.max_queue_blocks = self.max_queue_blocks.max(blocks);
        self.max_queue_volume = self.max_queue_volume.max(volume);
    }
}

/// The per-stage counters of a live run plus the one flow-wide total that is
/// read per event: taint escaped past every verifier, which the
/// `escaped_taint` SLO compares against its ceiling on every event. The
/// total is kept beside the counters so that read is O(1).
/// [`RunMetrics::note_escaped`] is the only code that writes
/// [`StageMetrics::corrupt_escaped`] during a run; a write that went around
/// it would leave the total behind, which `FlowSim::report` checks.
pub(crate) struct RunMetrics {
    stages: Vec<StageMetrics>,
    /// Σ `stages[i].corrupt_escaped`.
    escaped: u64,
}

impl RunMetrics {
    pub(crate) fn new(stages: usize) -> Self {
        RunMetrics { stages: vec![StageMetrics::default(); stages], escaped: 0 }
    }

    /// Every stage's counters, for a snapshot. The total is derived, not
    /// persisted: it is a function of the counters, and writing it would
    /// change the snapshot bytes for a value a restore can recompute.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        for m in &self.stages {
            m.save(out);
        }
    }

    /// The counters of `stages` stages, as [`RunMetrics::save`] wrote them.
    pub(crate) fn load(r: &mut Reader, stages: usize) -> CoreResult<Self> {
        let stages: CoreResult<Vec<StageMetrics>> =
            (0..stages).map(|_| StageMetrics::load(r)).collect();
        let mut m = RunMetrics { stages: stages?, escaped: 0 };
        m.escaped = m.escaped_sum();
        Ok(m)
    }

    /// `taint` units reached consumers unchecked at `stage`.
    pub(crate) fn note_escaped(&mut self, stage: StageId, taint: u32) {
        self.stages[stage.index()].corrupt_escaped += taint as u64;
        self.escaped += taint as u64;
    }

    /// Taint escaped flow-wide so far.
    pub(crate) fn escaped(&self) -> u64 {
        self.escaped
    }

    /// The same total recomputed from the counters, O(stages): what a
    /// restore derives and what the end-of-run consistency check compares.
    pub(crate) fn escaped_sum(&self) -> u64 {
        self.stages.iter().map(|m| m.corrupt_escaped).sum()
    }
}

impl std::ops::Index<StageId> for RunMetrics {
    type Output = StageMetrics;

    fn index(&self, stage: StageId) -> &StageMetrics {
        &self.stages[stage.index()]
    }
}

impl std::ops::IndexMut<StageId> for RunMetrics {
    fn index_mut(&mut self, stage: StageId) -> &mut StageMetrics {
        &mut self.stages[stage.index()]
    }
}

/// Per-pool utilisation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetrics {
    pub name: String,
    pub cpus: u32,
    pub peak_in_use: u32,
    pub busy_cpu_secs: f64,
    /// busy cpu-seconds / (cpus × elapsed); 1.0 means fully saturated.
    pub utilization: f64,
}

crate::wire_struct! {
    /// One time-series sample of the flow's instantaneous state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TsSample {
        /// Sample time. Samples land on tick boundaries, plus one final sample
        /// at `finished_at`.
        pub at: SimTime,
        /// Queued volume per stage, in stage order (parallel to
        /// [`SimReport::stages`]).
        pub queued: Vec<DataVolume>,
        /// Units in use per shared pool, parallel to [`TimeSeries::pools`].
        pub pool_in_use: Vec<u32>,
        /// Cumulative volume arrived at sink stages (stages with no downstream).
        pub sink_volume: DataVolume,
    }
}

/// Time-resolved telemetry sampled during the run, recorded when the flow
/// was observed ([`crate::graph::FlowGraph::set_observe`]). Samples reflect the
/// state after all events at or before the sample time; sampling schedules
/// no events of its own, so the run is identical with or without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Interval between samples.
    pub tick: SimDuration,
    /// Names of the shared pools, in [`SimReport::pools`] order.
    pub pools: Vec<String>,
    pub samples: Vec<TsSample>,
}

/// Event-loop counters from [`crate::engine::Engine::run_counted`],
/// populated alongside [`TimeSeries`] when observation is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events dispatched by the run loop.
    pub events_handled: u64,
    /// High-water mark of the pending-event heap.
    pub peak_pending: usize,
}

/// The result of a [`crate::sim::FlowSim`] run.
///
/// Derives `PartialEq` so replay determinism can be asserted wholesale: two
/// runs of the same seeded scenario must produce *equal* reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Time of the last event (all work complete).
    pub finished_at: SimTime,
    /// When the last source block was emitted, if any source emitted.
    pub source_end: Option<SimTime>,
    /// Total queued volume across all stages at `source_end` — the backlog a
    /// flow that cannot keep up accumulates.
    pub backlog_at_source_end: Option<DataVolume>,
    pub stages: Vec<StageMetrics>,
    pub pools: Vec<PoolMetrics>,
    /// High-water mark of instantaneous allocated storage.
    pub peak_storage: DataVolume,
    /// Bytes permanently retained (archives plus retained inputs).
    pub retained_storage: DataVolume,
    /// Storage-ledger frees that exceeded the current allocation. Always
    /// zero for a correct simulation; a non-zero count flags a storage
    /// accounting bug in whatever produced the report.
    pub ledger_underflows: u64,
    /// Time-resolved telemetry; `Some` only when the flow was observed
    /// ([`crate::graph::FlowGraph::set_observe`]). Unobserved flows carry `None`, so
    /// their reports stay identical to the pre-observability simulator.
    pub timeseries: Option<TimeSeries>,
    /// Event-loop counters; populated together with `timeseries`.
    pub engine: Option<EngineStats>,
    /// SLO violation windows; `Some` (possibly empty) only when the flow
    /// carries rules ([`crate::graph::FlowGraph::set_slos`]). Flows without rules
    /// carry `None`, so their reports — and every previously committed
    /// golden — render byte-identically to the pre-SLO simulator.
    pub alerts: Option<Vec<Alert>>,
}

impl SimReport {
    pub fn stage(&self, name: &str) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.name == name)
    }

    pub fn pool(&self, name: &str) -> Option<&PoolMetrics> {
        self.pools.iter().find(|p| p.name == name)
    }

    /// How long after the sources stopped did the flow take to finish. A
    /// small drain duration means the system "keeps up with the flow of
    /// data"; a large one means processing is the bottleneck.
    ///
    /// Returns `None` when the run had no source emissions at all (an empty
    /// flow, or every source configured with zero blocks): with no
    /// `source_end` there is no drain to measure. It never panics — for any
    /// run that did emit, `finished_at >= source_end` holds and the
    /// subtraction is well-defined.
    pub fn drain_duration(&self) -> Option<SimDuration> {
        self.source_end.and_then(|s| self.finished_at.checked_sub(s))
    }

    /// True when the flow kept pace: bounded backlog at source end and a
    /// drain time within `slack`.
    ///
    /// A run with zero source emissions returns `false`, not `true`: with
    /// nothing produced there is no evidence the system keeps up, so the
    /// claim is refused rather than vacuously granted. (Before this was
    /// documented, callers had to read the `match` to learn that the
    /// `None`/`None` case falls through to `false`.)
    pub fn kept_up(&self, slack: SimDuration) -> bool {
        match (self.backlog_at_source_end, self.drain_duration()) {
            (Some(_), Some(drain)) => drain <= slack,
            _ => false,
        }
    }

    /// Total retries issued across all stages.
    pub fn total_retries(&self) -> u64 {
        self.stages.iter().map(|s| s.retries).sum()
    }

    /// Total injected fault events that affected execution.
    pub fn total_faults(&self) -> u64 {
        self.stages.iter().map(|s| s.faults).sum()
    }

    /// Total blocks abandoned after retry exhaustion.
    pub fn total_blocks_failed(&self) -> u64 {
        self.stages.iter().map(|s| s.blocks_failed).sum()
    }

    /// Total volume retransmitted by retries.
    pub fn total_volume_retransmitted(&self) -> DataVolume {
        self.stages.iter().map(|s| s.volume_retransmitted).sum()
    }

    /// Total volume of abandoned blocks.
    pub fn total_volume_lost(&self) -> DataVolume {
        self.stages.iter().map(|s| s.volume_lost).sum()
    }

    /// Total tasks killed by crashes across all stages.
    pub fn total_crashes(&self) -> u64 {
        self.stages.iter().map(|s| s.crashes).sum()
    }

    /// Total useful work destroyed by crashes.
    pub fn total_work_lost(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for s in &self.stages {
            total += s.work_lost;
        }
        total
    }

    /// Total checkpoint-write overhead across all stages.
    pub fn total_checkpoint_overhead(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for s in &self.stages {
            total += s.checkpoint_overhead;
        }
        total
    }

    /// Total taint units injected by silent corruption.
    pub fn total_corrupt_injected(&self) -> u64 {
        self.stages.iter().map(|s| s.corrupt_injected).sum()
    }

    /// Total taint units caught (verified or contained) across all stages.
    pub fn total_corrupt_detected(&self) -> u64 {
        self.stages.iter().map(|s| s.corrupt_detected).sum()
    }

    /// Total taint units that reached a stage unchecked.
    pub fn total_corrupt_escaped(&self) -> u64 {
        self.stages.iter().map(|s| s.corrupt_escaped).sum()
    }

    /// Total blocks quarantined across all stages.
    pub fn total_quarantined(&self) -> u64 {
        self.stages.iter().map(|s| s.quarantined).sum()
    }

    /// Total blocks re-enqueued by lineage-driven reprocessing.
    pub fn total_reprocessed_blocks(&self) -> u64 {
        self.stages.iter().map(|s| s.reprocessed_blocks).sum()
    }

    /// Total compute time spent on arrival integrity checks.
    pub fn total_verify_overhead(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for s in &self.stages {
            total += s.verify_overhead;
        }
        total
    }

    /// Machine-readable export: a JSON document with a fixed key order and
    /// deterministic number formatting (times and durations as integer
    /// microseconds, volumes as integer bytes, floats via Rust's
    /// shortest-roundtrip `{:?}`). Two equal reports render byte-identically,
    /// so downstream tooling can diff or golden-test this instead of parsing
    /// the human text render.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let esc = crate::trace::esc;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let mut out = String::new();
        let w = &mut out;
        writeln!(w, "{{").unwrap();
        writeln!(w, "  \"finished_at\": {},", self.finished_at.as_micros()).unwrap();
        writeln!(w, "  \"source_end\": {},", opt(self.source_end.map(|t| t.as_micros()))).unwrap();
        writeln!(
            w,
            "  \"backlog_at_source_end\": {},",
            opt(self.backlog_at_source_end.map(|v| v.bytes()))
        )
        .unwrap();
        writeln!(w, "  \"peak_storage\": {},", self.peak_storage.bytes()).unwrap();
        writeln!(w, "  \"retained_storage\": {},", self.retained_storage.bytes()).unwrap();
        writeln!(w, "  \"ledger_underflows\": {},", self.ledger_underflows).unwrap();
        writeln!(w, "  \"stages\": [").unwrap();
        for (i, s) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            // Every counter renders as its snapshot word, under its field name.
            write!(w, "    {{\"name\": \"{}\"", esc(&s.name)).unwrap();
            for (field, word) in StageMetrics::FIELDS.iter().zip(s.words()) {
                write!(w, ", \"{field}\": {word}").unwrap();
            }
            writeln!(w, "}}{comma}").unwrap();
        }
        writeln!(w, "  ],").unwrap();
        writeln!(w, "  \"pools\": [").unwrap();
        for (i, p) in self.pools.iter().enumerate() {
            let comma = if i + 1 < self.pools.len() { "," } else { "" };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"cpus\": {}, \"peak_in_use\": {}, \
                 \"busy_cpu_secs\": {:?}, \"utilization\": {:?}}}{comma}",
                esc(&p.name),
                p.cpus,
                p.peak_in_use,
                p.busy_cpu_secs,
                p.utilization,
            )
            .unwrap();
        }
        writeln!(w, "  ],").unwrap();
        match &self.timeseries {
            None => writeln!(w, "  \"timeseries\": null,").unwrap(),
            Some(ts) => {
                writeln!(w, "  \"timeseries\": {{").unwrap();
                writeln!(w, "    \"tick\": {},", ts.tick.as_micros()).unwrap();
                let pools: Vec<String> =
                    ts.pools.iter().map(|p| format!("\"{}\"", esc(p))).collect();
                writeln!(w, "    \"pools\": [{}],", pools.join(", ")).unwrap();
                writeln!(w, "    \"samples\": [").unwrap();
                for (i, s) in ts.samples.iter().enumerate() {
                    let comma = if i + 1 < ts.samples.len() { "," } else { "" };
                    let queued: Vec<String> =
                        s.queued.iter().map(|v| v.bytes().to_string()).collect();
                    let in_use: Vec<String> = s.pool_in_use.iter().map(|u| u.to_string()).collect();
                    writeln!(
                        w,
                        "      {{\"at\": {}, \"queued\": [{}], \"pool_in_use\": [{}], \
                         \"sink_volume\": {}}}{comma}",
                        s.at.as_micros(),
                        queued.join(", "),
                        in_use.join(", "),
                        s.sink_volume.bytes(),
                    )
                    .unwrap();
                }
                writeln!(w, "    ]").unwrap();
                writeln!(w, "  }},").unwrap();
            }
        }
        // The `alerts` key is rendered *only* for flows that declared SLO
        // rules: rule-free reports keep the exact bytes they had before the
        // observability layer existed, so committed goldens stay pinned.
        let engine_comma = if self.alerts.is_some() { "," } else { "" };
        match self.engine {
            None => writeln!(w, "  \"engine\": null{engine_comma}").unwrap(),
            Some(e) => writeln!(
                w,
                "  \"engine\": {{\"events_handled\": {}, \"peak_pending\": {}}}{engine_comma}",
                e.events_handled, e.peak_pending
            )
            .unwrap(),
        }
        if let Some(alerts) = &self.alerts {
            writeln!(w, "  \"alerts\": [").unwrap();
            for (i, a) in alerts.iter().enumerate() {
                let comma = if i + 1 < alerts.len() { "," } else { "" };
                let resolved = match a.resolved_at {
                    Some(t) => t.as_micros().to_string(),
                    None => "null".to_string(),
                };
                writeln!(
                    w,
                    "    {{\"rule\": \"{}\", \"fired_at\": {}, \"resolved_at\": {}, \
                     \"peak\": {}}}{comma}",
                    esc(&a.rule),
                    a.fired_at.as_micros(),
                    resolved,
                    a.peak,
                )
                .unwrap();
            }
            writeln!(w, "  ]").unwrap();
        }
        writeln!(w, "}}").unwrap();
        out
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation finished at {}", self.finished_at)?;
        if let (Some(end), Some(backlog)) = (self.source_end, self.backlog_at_source_end) {
            writeln!(f, "  sources ended at {end}, backlog then {backlog}")?;
        }
        writeln!(f, "  peak storage {}  retained {}", self.peak_storage, self.retained_storage)?;
        if self.ledger_underflows > 0 {
            writeln!(f, "  LEDGER UNDERFLOWS {} (storage accounting bug)", self.ledger_underflows)?;
        }
        if self.total_faults() > 0 || self.total_retries() > 0 {
            writeln!(
                f,
                "  faults {}  retries {}  blocks failed {}  retransmitted {}  lost {}",
                self.total_faults(),
                self.total_retries(),
                self.total_blocks_failed(),
                self.total_volume_retransmitted(),
                self.total_volume_lost(),
            )?;
        }
        if self.total_crashes() > 0 {
            writeln!(
                f,
                "  crashes {}  work lost {}  replayed {}  checkpoint overhead {}",
                self.total_crashes(),
                self.total_work_lost(),
                self.stages.iter().fold(SimDuration::ZERO, |acc, s| acc + s.work_replayed),
                self.total_checkpoint_overhead(),
            )?;
        }
        if self.total_corrupt_injected() > 0 || self.total_verify_overhead() > SimDuration::ZERO {
            writeln!(
                f,
                "  corruption injected {}  detected {}  escaped {}  quarantined {}  reprocessed {}  verify overhead {}",
                self.total_corrupt_injected(),
                self.total_corrupt_detected(),
                self.total_corrupt_escaped(),
                self.total_quarantined(),
                self.total_reprocessed_blocks(),
                self.total_verify_overhead(),
            )?;
        }
        for s in &self.stages {
            writeln!(
                f,
                "  stage {:<24} in {:>12} ({} blk)  out {:>12} ({} blk)  busy {}  maxq {}",
                s.name,
                s.volume_in.to_string(),
                s.blocks_in,
                s.volume_out.to_string(),
                s.blocks_out,
                s.busy,
                s.max_queue_volume,
            )?;
        }
        for p in &self.pools {
            writeln!(
                f,
                "  pool  {:<24} cpus {:>5}  peak {:>5}  utilization {:.1}%",
                p.name,
                p.cpus,
                p.peak_in_use,
                p.utilization * 100.0
            )?;
        }
        if let Some(ts) = &self.timeseries {
            writeln!(f, "  telemetry {} samples every {}", ts.samples.len(), ts.tick)?;
        }
        if let Some(e) = &self.engine {
            writeln!(
                f,
                "  engine {} events handled, peak {} pending",
                e.events_handled, e.peak_pending
            )?;
        }
        if let Some(alerts) = &self.alerts {
            if alerts.is_empty() {
                writeln!(f, "  slo: all rules held")?;
            }
            for a in alerts {
                writeln!(f, "  slo: {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_high_water_marks() {
        let mut m = StageMetrics::default();
        m.note_queue(3, DataVolume::gib(3));
        m.note_queue(1, DataVolume::gib(1));
        assert_eq!(m.max_queue_blocks, 3);
        assert_eq!(m.max_queue_volume, DataVolume::gib(3));
    }

    #[test]
    fn every_counter_survives_the_nonzero_bitmap() {
        // One distinct nonzero word per counter, whatever the list holds.
        let mut words = [0u64; StageMetrics::COUNTERS];
        for (i, word) in words.iter_mut().enumerate() {
            *word = 1000 + i as u64;
        }
        let all = StageMetrics::from_words(words);
        assert_eq!(all.words(), words);
        let mut bytes = Vec::new();
        all.save(&mut bytes);
        // A 24-bit bitmap is four LEB128 bytes; each word below 2^14, two.
        assert_eq!(bytes.len(), 4 + 2 * StageMetrics::COUNTERS);
        let mut r = Reader::new(&bytes);
        assert_eq!(StageMetrics::load(&mut r).unwrap(), all);
        r.done().unwrap();
        // Declaration order is bit order, and format 2 has 24 of them.
        assert_eq!(StageMetrics::COUNTERS, 24);
        assert_eq!((all.blocks_in, all.volume_in.bytes()), (1000, 1001));
        assert_eq!((all.max_queue_blocks, all.completed_at.as_micros()), (1005, 1008));
        assert_eq!(all.verify_overhead.as_micros(), 1023);
        // Zero counters cost a bit, not a word.
        let sparse =
            StageMetrics { blocks_out: 3, busy: SimDuration::from_micros(9), ..Default::default() };
        let mut bytes = Vec::new();
        sparse.save(&mut bytes);
        assert_eq!(bytes, [0b1_0100, 3, 9]);
        assert_eq!(StageMetrics::load(&mut Reader::new(&bytes)).unwrap(), sparse);
        let mut bytes = Vec::new();
        StageMetrics::default().save(&mut bytes);
        assert_eq!(bytes, [0]);
    }

    #[test]
    fn an_unknown_bitmap_bit_is_refused() {
        let mut bytes = Vec::new();
        (1u32 << StageMetrics::COUNTERS).put(&mut bytes);
        7u64.put(&mut bytes);
        let err = StageMetrics::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CoreError::CorruptJournal { .. }), "got {err:?}");
        // A known bit whose word is missing is an overrun, not a zero.
        let err = StageMetrics::load(&mut Reader::new(&[1])).unwrap_err();
        assert!(matches!(err, CoreError::CorruptJournal { .. }), "got {err:?}");
    }

    fn sample_report() -> SimReport {
        SimReport {
            finished_at: SimTime::from_micros(1_000_000),
            source_end: Some(SimTime::from_micros(500_000)),
            backlog_at_source_end: Some(DataVolume::ZERO),
            stages: vec![StageMetrics { name: "x".into(), ..Default::default() }],
            pools: vec![],
            peak_storage: DataVolume::gib(1),
            retained_storage: DataVolume::ZERO,
            ledger_underflows: 0,
            timeseries: None,
            engine: None,
            alerts: None,
        }
    }

    #[test]
    fn report_lookup_and_display() {
        let report = sample_report();
        assert!(report.stage("x").is_some());
        assert!(report.stage("y").is_none());
        assert!(report.kept_up(SimDuration::from_secs(1)));
        assert!(
            !report.kept_up(SimDuration::ZERO)
                || report.drain_duration().unwrap() == SimDuration::ZERO
        );
        let text = report.to_string();
        assert!(text.contains("peak storage"));
    }

    #[test]
    fn zero_completion_flow_has_no_drain_and_never_kept_up() {
        // A flow whose sources emitted nothing: `source_end` is None, so
        // there is no drain duration to measure and `kept_up` refuses the
        // claim for any slack (documented contract, not an accident of the
        // match arms).
        let report = SimReport { source_end: None, backlog_at_source_end: None, ..sample_report() };
        assert_eq!(report.drain_duration(), None);
        assert!(!report.kept_up(SimDuration::ZERO));
        assert!(!report.kept_up(SimDuration::from_days(365)));
    }

    #[test]
    fn to_json_is_stable_and_renders_optionals() {
        let mut report = sample_report();
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "same report renders byte-identically");
        assert!(json.contains("\"finished_at\": 1000000"));
        assert!(json.contains("\"source_end\": 500000"));
        assert!(json.contains("\"timeseries\": null"));
        assert!(json.contains("\"engine\": null"));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());

        report.timeseries = Some(TimeSeries {
            tick: SimDuration::from_secs(1),
            pools: vec!["farm".into()],
            samples: vec![TsSample {
                at: SimTime::from_micros(7),
                queued: vec![DataVolume::from_bytes(3)],
                pool_in_use: vec![2],
                sink_volume: DataVolume::from_bytes(9),
            }],
        });
        report.engine = Some(EngineStats { events_handled: 11, peak_pending: 4 });
        let json = report.to_json();
        assert!(json.contains("\"tick\": 1000000"));
        assert!(json.contains("\"pool_in_use\": [2]"));
        assert!(json.contains("\"events_handled\": 11"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn alerts_render_only_when_rules_were_declared() {
        let mut report = sample_report();
        let without = report.to_json();
        assert!(!without.contains("\"alerts\""), "rule-free reports keep their old bytes");
        assert!(without.contains("\"engine\": null\n"), "no trailing comma without alerts");

        report.alerts = Some(vec![]);
        let empty = report.to_json();
        assert!(empty.contains("\"engine\": null,"), "engine gains a comma before alerts");
        assert!(empty.contains("\"alerts\": [\n  ]"));

        report.alerts = Some(vec![Alert {
            rule: "backlog".into(),
            fired_at: SimTime::from_micros(3),
            resolved_at: None,
            peak: 9,
        }]);
        let json = report.to_json();
        assert!(json.contains(
            "{\"rule\": \"backlog\", \"fired_at\": 3, \"resolved_at\": null, \"peak\": 9}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = report.to_string();
        assert!(text.contains("slo: ALERT backlog"), "{text}");
    }
}
