//! The seven workloads: what set-up builds, what one pass does, which
//! outputs it must produce, and which per-layer metrics its spans yield.
//!
//! Every input size is fixed; the seed picks among equal-sized inputs (a
//! stress shape, zoo seeds, a record order), so counts repeat exactly for a
//! seed and pass times stay comparable between seeds.

use std::path::PathBuf;

use crate::check::Outputs;
use crate::scratch::Scratch;
use crate::stats::{fnv1a_update, SplitMix};
use crate::sut::{self, layer, Date, Flow, Record, Rep, RunSpan, Shape, Store, Tier, ZooFlow};
use crate::trace::{Summary, Tracer};

/// Input sizes: the full benchmark, or the `--quick` smoke.
pub struct Sizes {
    /// Stress shapes the seed picks from: all 1 002 stages and one million
    /// block-hops, within ~1% of each other in pass time. (The 2 002-stage
    /// shape `(16, 125, 500)` is 8% slower and is left out for that reason.)
    pub stress: [Shape; 4],
    /// `finished_at_us` of `stress[0]`, known beforehand.
    pub stress0_finished_at_us: Option<u64>,
    /// Events a durable pass runs before the simulator is dropped.
    pub durable_pause: u64,
    pub snapshot_every: u64,
    /// Shape of the trace `trace-analyze` reads.
    pub analyze: Shape,
    pub zoo_per_archetype: usize,
    pub clean_reps: usize,
    pub case_reps: usize,
    pub ingest_files: u64,
    pub personal_files: u64,
    pub sync_files_per_side: u64,
    pub sync_deltas: usize,
    pub delta_files: u64,
}

pub const FULL: Sizes = Sizes {
    stress: [(8, 125, 1000), (10, 100, 1000), (4, 250, 1000), (5, 200, 1000)],
    stress0_finished_at_us: Some(30_003_680_115),
    durable_pause: 1_500_000,
    snapshot_every: 10_000,
    analyze: (4, 25, 200),
    zoo_per_archetype: 32,
    clean_reps: 4,
    case_reps: 10,
    ingest_files: 10_000,
    personal_files: 1_000,
    sync_files_per_side: 1_000,
    sync_deltas: 5,
    delta_files: 10,
};

pub const QUICK: Sizes = Sizes {
    stress: [(4, 25, 100), (5, 20, 100), (2, 50, 100), (10, 10, 100)],
    stress0_finished_at_us: None,
    durable_pause: 15_000,
    snapshot_every: 1_000,
    analyze: (2, 10, 40),
    zoo_per_archetype: 2,
    clean_reps: 2,
    case_reps: 1,
    ingest_files: 600,
    personal_files: 60,
    sync_files_per_side: 100,
    sync_deltas: 2,
    delta_files: 10,
};

/// What a workload's traced spans are summarised into.
pub struct LayerCtx<'a> {
    /// Spans of set-up and the warm-up pass (pass 0).
    pub setup: &'a Summary,
    /// Spans of the traced timed passes.
    pub passes: &'a Summary,
    /// The warm-up pass's outputs, which every pass reproduced.
    pub reference: &'a Outputs,
}

impl LayerCtx<'_> {
    /// Mean seconds of one `(layer, name)` call in the traced passes.
    fn per_call(&self, layer: &'static str, name: &'static str) -> f64 {
        self.passes.get(layer, name).secs_per_call()
    }

    fn count(&self, name: &str) -> f64 {
        self.reference.get(name) as f64
    }
}

pub type LayerMetrics = Vec<(&'static str, f64)>;

pub trait Workload {
    /// Untimed preparation before each pass.
    fn prep(&mut self, _t: &mut Tracer) {}

    /// One pass of fixed work. The warm-up pass may span its calls more
    /// finely than a timed pass does; its outputs are the reference.
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs;

    /// The per-layer metrics homed on this workload.
    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics;

    /// Units of work in one pass, for the derived work/s in the printout.
    fn work(&self, reference: &Outputs) -> (f64, &'static str);
}

/// Build workload `name`'s inputs from `seed`: the set-up that `setup_s` times.
pub fn set_up(
    name: &str,
    seed: u64,
    sizes: &'static Sizes,
    scratch: &Scratch,
    t: &mut Tracer,
) -> Box<dyn Workload> {
    match name {
        "sim-stress" => Box::new(SimStress::set_up(seed, sizes, t)),
        "sim-durable" => Box::new(SimDurable::set_up(seed, sizes, scratch, t)),
        "sim-observed" => Box::new(SimObserved::set_up(seed, sizes, t)),
        "trace-analyze" => Box::new(TraceAnalyze::set_up(seed, sizes, t)),
        "sim-sweep" => Box::new(SimSweep::set_up(seed, sizes, t)),
        "es-ingest" => Box::new(EsIngest::set_up(seed, sizes, t)),
        "es-sync" => Box::new(EsSync::set_up(seed, sizes, scratch, t)),
        other => panic!("unknown workload `{other}`"),
    }
}

fn stress_shape(seed: u64, sizes: &Sizes) -> (usize, Shape) {
    let i = (seed % sizes.stress.len() as u64) as usize;
    (i, sizes.stress[i])
}

// ---------------------------------------------------------------------------

/// The warm-up pass's report of each run, which later passes must equal.
/// Comparing with `==` keeps `Debug` formatting out of the timed passes; the
/// warm-up alone hashes the renderings into the outputs.
#[derive(Default)]
struct ReferenceReports {
    reports: Vec<sut::Report>,
    /// Position within the current pass.
    at: usize,
    equal: u64,
    debug_hash: u64,
}

impl ReferenceReports {
    fn begin_pass(&mut self) {
        self.at = 0;
        self.equal = 0;
    }

    fn take(&mut self, warmup: bool, report: sut::Report) {
        if warmup {
            self.debug_hash = fnv1a_update(self.debug_hash, report.debug().as_bytes());
            self.reports.push(report);
            self.equal += 1;
        } else {
            self.equal += (self.reports.get(self.at) == Some(&report)) as u64;
        }
        self.at += 1;
    }

    /// Record how many of this pass's reports equalled the reference's; on
    /// the warm-up also the hash of all their `Debug` renderings.
    fn conclude(&self, warmup: bool, out: &mut Outputs) {
        out.put("runs", self.at as u64);
        out.expect("reports_equal_to_reference", self.equal, self.reports.len() as u64);
        if warmup {
            out.put("reports_debug_hash", self.debug_hash);
        }
    }
}

/// Bytes every pass must reproduce: kept from the warm-up and compared with
/// `==`, so that only the warm-up pays for hashing them into its outputs.
#[derive(Default)]
struct ReferenceBytes(Vec<u8>);

impl ReferenceBytes {
    /// Records `same` as 1 when `bytes` are the warm-up's; the warm-up also
    /// records their hash under `hash`.
    fn check(
        &mut self,
        warmup: bool,
        hash: &'static str,
        same: &'static str,
        bytes: &[u8],
        out: &mut Outputs,
    ) {
        if warmup {
            out.put_hash(hash, bytes);
            self.0 = bytes.to_vec();
        }
        out.expect(same, (self.0 == bytes) as u64, 1);
    }
}

// ---------------------------------------------------------------------------

/// compile → construct → run to quiescence → report on one stress flow.
struct SimStress {
    flow: Flow,
    finished_at_us: Option<u64>,
    reference: ReferenceReports,
}

impl SimStress {
    fn set_up(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Self {
        let (i, shape) = stress_shape(seed, sizes);
        let finished_at_us = if i == 0 { sizes.stress0_finished_at_us } else { None };
        SimStress { flow: sut::stress(shape, t), finished_at_us, reference: Default::default() }
    }
}

impl Workload for SimStress {
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let span = if warmup { RunSpan::SplitReport } else { RunSpan::Whole("run") };
        let ran = sut::run(&self.flow, span, t);
        let mut out = Outputs::default();
        let at = ran.report.finished_at_us();
        out.expect("finished_at_us", at, self.finished_at_us.unwrap_or(at));
        if let Some(events) = ran.events {
            out.put("events_handled", events);
        }
        self.reference.begin_pass();
        self.reference.take(warmup, ran.report);
        self.reference.conclude(warmup, &mut out);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let run_s = ctx.per_call(layer::SIM, "run");
        vec![
            ("core.sim.run_s", run_s),
            ("core.sim.ns_per_event", run_s * 1e9 / ctx.count("events_handled")),
            ("core.sim.events_handled", ctx.count("events_handled")),
            ("core.sim.finished_at_us", ctx.count("finished_at_us")),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("events_handled") as f64, "events")
    }
}

// ---------------------------------------------------------------------------

/// A journaled run advanced part-way and dropped (the crash), then a fresh
/// simulator resumed from the journal and run to the end.
struct SimDurable {
    flow: Flow,
    pause: u64,
    every: u64,
    /// The uninterrupted run's report, built in set-up.
    bare: sut::Report,
    journal: PathBuf,
    snapshot: PathBuf,
}

impl SimDurable {
    fn set_up(seed: u64, sizes: &Sizes, scratch: &Scratch, t: &mut Tracer) -> Self {
        let flow = sut::stress(stress_shape(seed, sizes).1, t);
        let bare = sut::bare_run_for(&flow, sizes.durable_pause, t);
        SimDurable {
            flow,
            pause: sizes.durable_pause,
            every: sizes.snapshot_every,
            bare,
            journal: scratch.path("run.journal"),
            snapshot: scratch.path("run.snapshot"),
        }
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

impl Workload for SimDurable {
    fn pass(&mut self, _warmup: bool, t: &mut Tracer) -> Outputs {
        let paused = sut::journaled_run_for(&self.flow, self.every, self.pause, &self.journal, t);
        paused.snapshot_to(&self.snapshot, t);
        let paused_at = paused.events_handled();
        drop(paused);
        let mut out = Outputs::default();
        out.expect("paused_at_events", paused_at, self.pause);
        // One frame per `every` events handled: what the policy commits.
        out.put("frames", paused_at / self.every);
        out.put("journal_bytes", file_len(&self.journal));
        out.put("snapshot_bytes", file_len(&self.snapshot));
        let resumed = sut::resume_and_finish(&self.flow, self.every, &self.journal, t);
        out.put("finished_at_us", resumed.finished_at_us());
        out.expect("resumed_equals_bare", (resumed == self.bare) as u64, 1);
        let _ = std::fs::remove_file(&self.journal);
        let _ = std::fs::remove_file(&self.snapshot);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let journaled = ctx.per_call(layer::DURABLE, "journaled_run");
        let bare = ctx.setup.get(layer::SIM, "bare_run_for").secs_per_call();
        vec![
            ("core.durable.journaled_run_s", journaled),
            ("core.durable.us_per_frame", (journaled - bare) * 1e6 / ctx.count("frames")),
            ("core.durable.frames", ctx.count("frames")),
            ("core.durable.journal_bytes", ctx.count("journal_bytes")),
            ("core.durable.resume_from_s", ctx.per_call(layer::DURABLE, "resume_from")),
            ("core.durable.finish_s", ctx.per_call(layer::DURABLE, "finish")),
            ("core.durable.snapshot_to_s", ctx.per_call(layer::DURABLE, "snapshot_to")),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("paused_at_events") as f64, "journaled events")
    }
}

// ---------------------------------------------------------------------------

/// The stress flow at half its blocks with every telemetry surface on: time
/// series, two SLO rules, a trace recorder and a metrics hub.
struct SimObserved {
    flow: Flow,
    bare_finished_at_us: u64,
    prometheus: ReferenceBytes,
    json: ReferenceBytes,
}

impl SimObserved {
    fn set_up(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Self {
        let (chains, depth, blocks) = stress_shape(seed, sizes).1;
        let bare = sut::stress((chains, depth, blocks / 2), t);
        let bare_finished_at_us =
            sut::run(&bare, RunSpan::Whole("bare_run"), t).report.finished_at_us();
        SimObserved {
            flow: bare.observed(),
            bare_finished_at_us,
            prometheus: Default::default(),
            json: Default::default(),
        }
    }
}

impl Workload for SimObserved {
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let (report, recorded, hub) = sut::run_observed(&self.flow, t);
        let prometheus = hub.render_prometheus(t);
        let json = hub.render_json(t);
        let mut out = Outputs::default();
        out.expect("finished_at_us", report.finished_at_us(), self.bare_finished_at_us);
        out.put("events_recorded", recorded.events());
        out.put("ts_samples", report.ts_samples());
        out.put("series", hub.series());
        out.put("peak_pending", hub.peak_pending());
        out.put("slab_high_water", hub.slab_high_water());
        self.prometheus.check(
            warmup,
            "prometheus",
            "prometheus_same",
            prometheus.as_bytes(),
            &mut out,
        );
        self.json.check(warmup, "json", "json_same", json.as_bytes(), &mut out);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let observed = ctx.per_call(layer::TRACE, "observed_run");
        let bare = ctx.setup.get(layer::SIM, "bare_run").secs_per_call();
        let recorded = ctx.count("events_recorded");
        vec![
            ("core.trace.observed_run_s", observed),
            ("core.trace.ns_per_trace_event", (observed - bare) * 1e9 / recorded),
            ("core.trace.events_recorded", recorded),
            ("core.obs.render_prometheus_us", ctx.per_call(layer::OBS, "render_prometheus") * 1e6),
            ("core.obs.render_json_us", ctx.per_call(layer::OBS, "render_json") * 1e6),
            ("core.obs.series", ctx.count("series")),
            ("core.metrics.ts_samples", ctx.count("ts_samples")),
            ("core.engine.peak_pending", ctx.count("peak_pending")),
            ("core.engine.slab_high_water", ctx.count("slab_high_water")),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("events_recorded") as f64, "trace events")
    }
}

// ---------------------------------------------------------------------------

/// Reads of a trace recorded once in set-up: snapshot, critical path, spans,
/// JSONL and Chrome export.
struct TraceAnalyze {
    run: sut::Report,
    recorded: sut::Recorded,
    jsonl: ReferenceBytes,
    chrome: ReferenceBytes,
}

impl TraceAnalyze {
    fn set_up(_seed: u64, sizes: &Sizes, t: &mut Tracer) -> Self {
        // The same trace for every seed: `critical_path` grows faster than
        // linearly in the segment count, so a seeded shape would make pass
        // times of different seeds incomparable.
        let flow = sut::stress(sizes.analyze, t).observed();
        let (run, recorded, _hub) = sut::run_observed(&flow, t);
        TraceAnalyze { run, recorded, jsonl: Default::default(), chrome: Default::default() }
    }
}

impl Workload for TraceAnalyze {
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let a = sut::analyze(&self.recorded, &self.run, t);
        let mut out = Outputs::default();
        out.put("trace_events", self.recorded.events());
        out.put("segments", a.segments);
        out.put("spans", a.spans);
        out.put("jsonl_bytes", a.jsonl.len() as u64);
        self.jsonl.check(warmup, "jsonl", "jsonl_same", a.jsonl.as_bytes(), &mut out);
        self.chrome.check(warmup, "chrome", "chrome_same", a.chrome.as_bytes(), &mut out);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        vec![
            ("core.trace.snapshot_s", ctx.per_call(layer::TRACE, "snapshot")),
            ("core.trace.spans_s", ctx.per_call(layer::TRACE, "spans")),
            ("core.trace.jsonl_s", ctx.per_call(layer::TRACE, "jsonl")),
            ("core.trace.jsonl_bytes", ctx.count("jsonl_bytes")),
            ("core.trace.chrome_s", ctx.per_call(layer::TRACE, "chrome")),
            ("core.critical.path_s", ctx.per_call(layer::CRITICAL, "path")),
            ("core.critical.segments", ctx.count("segments")),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("trace_events") as f64, "trace events")
    }
}

// ---------------------------------------------------------------------------

/// Many short runs: every zoo flow several times clean and once faulted,
/// and the three paper-scale case studies.
struct SimSweep {
    zoo: Vec<ZooFlow>,
    cases: Vec<Flow>,
    clean_reps: usize,
    case_reps: usize,
    reference: ReferenceReports,
}

impl SimSweep {
    fn set_up(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Self {
        // The same flows for every seed, run in a seeded order: pass time
        // is dominated by a few heavy faulted flows, and a seeded population
        // moved it threefold (0.10 to 0.29 s) between seeds.
        let mut zoo = Vec::new();
        for archetype in 0..sut::ARCHETYPES {
            for i in 0..sizes.zoo_per_archetype {
                zoo.push(ZooFlow::generate(archetype, 1000 + i as u64, t));
            }
        }
        SplitMix(seed).shuffle(&mut zoo);
        SimSweep {
            zoo,
            cases: sut::case_studies(),
            clean_reps: sizes.clean_reps,
            case_reps: sizes.case_reps,
            reference: Default::default(),
        }
    }
}

impl Workload for SimSweep {
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let span = |name| if warmup { RunSpan::SplitReport } else { RunSpan::Whole(name) };
        let mut events = 0;
        self.reference.begin_pass();
        for flow in &self.zoo {
            for _ in 0..self.clean_reps {
                let ran = flow.run_clean(span("clean_run"), t);
                events += ran.events.unwrap_or(0);
                self.reference.take(warmup, ran.report);
            }
            let ran = flow.run_faulted(span("faulted_run"), t);
            events += ran.events.unwrap_or(0);
            self.reference.take(warmup, ran.report);
        }
        for flow in &self.cases {
            for _ in 0..self.case_reps {
                let ran = sut::run(flow, span("case_run"), t);
                events += ran.events.unwrap_or(0);
                self.reference.take(warmup, ran.report);
            }
        }
        let mut out = Outputs::default();
        self.reference.conclude(warmup, &mut out);
        if warmup {
            out.put("events_handled", events);
            out.put("plan_events", self.zoo.iter().map(ZooFlow::plan_events).sum());
        }
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let us = |s: f64| s * 1e6;
        vec![
            (
                "core.genflow.generate_us",
                us(ctx.setup.get(layer::GENFLOW, "generate").secs_per_call()),
            ),
            (
                "core.fault.plan_generate_us",
                us(ctx.setup.get(layer::FAULT, "plan_generate").secs_per_call()),
            ),
            ("core.fault.plan_events", ctx.count("plan_events")),
            ("core.compiled.compile_us", us(ctx.per_call(layer::COMPILED, "compile"))),
            ("core.sim.construct_us", us(ctx.per_call(layer::SIM, "construct"))),
            // Report building is a span of its own only in the warm-up pass.
            ("core.sim.report_us", us(ctx.setup.get(layer::SIM, "report").secs_per_call())),
            ("core.sim.clean_run_us", us(ctx.per_call(layer::SIM, "clean_run"))),
            ("core.sim.faulted_run_us", us(ctx.per_call(layer::SIM, "faulted_run"))),
            ("core.sim.case_run_us", us(ctx.per_call(layer::SIM, "case_run"))),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("runs") as f64, "runs")
    }
}

// ---------------------------------------------------------------------------

const GRADE: &str = "physics";

fn recon_date(id: u64) -> Date {
    (2005, 1 + (id % 12) as u8, 1 + (id % 28) as u8)
}

/// Record `id` at `generation`. Every 100th is Monte-Carlo registered after
/// the last grade snapshot — the first-time data `resolve` must find.
fn record(id: u64, files: u64, generation: u32) -> Record {
    let run = 1 + (id % files) as u32;
    if id % 100 == 7 {
        Record::new(id, run, "mc", generation, (2006, 10, 1 + (id % 28) as u8))
    } else {
        Record::new(id, run, "recon", generation, recon_date(id))
    }
}

/// EventStore local writes beside reads on one in-memory group replica.
struct EsIngest {
    /// Generation 0 and generation 1 of every record, in registration order.
    records: Vec<(Record, Record)>,
    personal: Store,
    bytes: ReferenceBytes,
}

impl EsIngest {
    fn set_up(seed: u64, sizes: &Sizes, _t: &mut Tracer) -> Self {
        let files = sizes.ingest_files;
        let mut ids: Vec<u64> = (0..files).collect();
        SplitMix(seed).shuffle(&mut ids);
        let records = ids.iter().map(|&id| (record(id, files, 0), record(id, files, 1))).collect();
        let shipped: Vec<Record> = (0..sizes.personal_files)
            .map(|j| Record::new(1_000_000 + j, 1 + j as u32, "recon", 0, recon_date(j)))
            .collect();
        EsIngest { records, personal: Store::personal(&shipped), bytes: Default::default() }
    }
}

impl Workload for EsIngest {
    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let files = self.records.len() as u64;
        let mut replica = Rep::in_memory(1, Tier::Group);
        let mut snapshots = 0u64;
        for (i, (first, revised)) in self.records.iter().enumerate() {
            replica.register(first, t);
            if i % 5 == 0 {
                replica.revise(revised, t);
            }
            if i % 64 == 0 {
                replica.quarantine(first.id(), t);
            }
            if i % 128 == 0 {
                replica.release(first.id(), t);
            }
            if i % 500 == 499 {
                let date = (2005 + (snapshots / 12) as u16, 1 + (snapshots % 12) as u8, 1);
                replica.declare_snapshot(GRADE, date, files as u32, "recon", "v1", t);
                snapshots += 1;
            }
        }

        let store = replica.store();
        let lookups: Vec<(u32, &str)> =
            (0..20).map(|j| (1 + (j * 487 % files) as u32, "recon")).collect();
        let (first_time, opened) = store.resolve_and_open(GRADE, (2007, 1, 1), &lookups, t);
        let found = store.lookup((0..files + 70).step_by(7), t);
        let bytes = store.to_bytes(t);
        let mut reloaded = Store::from_bytes(&bytes, t);
        let round_trip = reloaded.view().to_bytes(t) == bytes;
        let (added, skipped, quarantined) = reloaded.merge_from(&self.personal, t);

        let mut out = Outputs::default();
        out.expect("file_count", store.file_count(), files);
        out.put("snapshots", snapshots);
        out.put("first_time_files", first_time);
        out.put("files_opened", opened);
        out.expect("lookups_found", found, files.div_ceil(7));
        out.put("store_bytes", bytes.len() as u64);
        self.bytes.check(warmup, "store", "store_same", &bytes, &mut out);
        out.expect("round_trip_equal", round_trip as u64, 1);
        out.expect("merge_added", added, self.personal.view().file_count());
        out.expect("merge_skipped", skipped, 0);
        out.expect("merge_quarantined", quarantined, 0);
        let merged = files + self.personal.view().file_count();
        out.expect("merged_file_count", reloaded.view().file_count(), merged);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let us = |layer, name| ctx.per_call(layer, name) * 1e6;
        let merged = self.personal.view().file_count() as f64;
        vec![
            ("eventstore.replica.register_us", us(layer::REPLICA, "register")),
            ("eventstore.replica.revise_us", us(layer::REPLICA, "revise")),
            ("eventstore.replica.quarantine_us", us(layer::REPLICA, "quarantine")),
            ("eventstore.replica.declare_snapshot_us", us(layer::REPLICA, "declare_snapshot")),
            ("eventstore.store.resolve_us", us(layer::STORE, "resolve")),
            ("eventstore.store.files_for_us", us(layer::STORE, "files_for")),
            ("eventstore.store.file_lookup_us", us(layer::STORE, "file")),
            ("eventstore.store.to_bytes_s", ctx.per_call(layer::STORE, "to_bytes")),
            ("eventstore.store.from_bytes_s", ctx.per_call(layer::STORE, "from_bytes")),
            ("eventstore.store.bytes", ctx.count("store_bytes")),
            ("eventstore.merge.merge_into_us_per_file", us(layer::MERGE, "merge_into") / merged),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        (reference.get("file_count") as f64, "files")
    }
}

// ---------------------------------------------------------------------------

/// Digest ranges `es-sync` asks for directly, to time `units_in_range`.
const RANGES_PROBED: usize = 4;

/// Anti-entropy between two durable replicas: a full exchange, a confirming
/// session, small deltas on the now-large store, checkpoint and recovery.
struct EsSync {
    root_records: Vec<Record>,
    leaf_records: Vec<Record>,
    /// New records the leaf registers before each delta session.
    deltas: Vec<Vec<Record>>,
    root_dir: PathBuf,
    leaf_dir: PathBuf,
    replicas: Option<(Rep, Rep)>,
    content: ReferenceBytes,
}

impl EsSync {
    fn set_up(seed: u64, sizes: &Sizes, scratch: &Scratch, _t: &mut Tracer) -> Self {
        let n = sizes.sync_files_per_side;
        let total = 2 * n + sizes.sync_deltas as u64 * sizes.delta_files;
        // Ids are the same for every seed (they decide which digest ranges
        // differ, and so how many units a delta ships); the seed shuffles
        // the order in which each side registers them.
        let make = |ids: std::ops::Range<u64>| -> Vec<Record> {
            ids.map(|id| Record::new(id, 1 + (id % total) as u32, "recon", 0, recon_date(id)))
                .collect()
        };
        let mut rng = SplitMix(seed);
        let mut root_records = make(0..n);
        let mut leaf_records = make(n..2 * n);
        rng.shuffle(&mut root_records);
        rng.shuffle(&mut leaf_records);
        let deltas = (0..sizes.sync_deltas as u64)
            .map(|d| make(2 * n + d * sizes.delta_files..2 * n + (d + 1) * sizes.delta_files))
            .collect();
        EsSync {
            root_records,
            leaf_records,
            deltas,
            root_dir: scratch.path("root"),
            leaf_dir: scratch.path("leaf"),
            replicas: None,
            content: Default::default(),
        }
    }
}

impl Workload for EsSync {
    fn prep(&mut self, t: &mut Tracer) {
        let mut root = Rep::durable(1, Tier::Collaboration, &self.root_dir);
        let mut leaf = Rep::durable(2, Tier::Personal, &self.leaf_dir);
        for r in &self.root_records {
            root.register(r, t);
        }
        for r in &self.leaf_records {
            leaf.register(r, t);
        }
        self.replicas = Some((root, leaf));
    }

    fn pass(&mut self, warmup: bool, t: &mut Tracer) -> Outputs {
        let (mut root, mut leaf) = self.replicas.take().expect("prep ran before the pass");
        let per_side = self.root_records.len() as u64;
        let mut link = sut::Link::clean();
        let mut out = Outputs::default();

        let full = link.sync(&mut leaf, &mut root, "full_sync", t);
        out.expect("full_units_added", full.units_added, 2 * per_side);
        let confirm = link.sync(&mut leaf, &mut root, "confirm", t);
        out.expect("confirm_in_sync", confirm.in_sync as u64, 1);
        let (mut frames, mut bytes) =
            (full.frames_sent + confirm.frames_sent, full.bytes_sent + confirm.bytes_sent);
        let mut ranges = full.ranges_differing + confirm.ranges_differing;

        out.put("summary_store", leaf.summary(t));
        let mut in_probed_ranges = 0;
        for r in 0..RANGES_PROBED {
            in_probed_ranges += leaf.units_in_range(r, t);
        }
        out.put("units_in_probed_ranges", in_probed_ranges);

        let (mut delta_sent, mut delta_added) = (0, 0);
        for delta in &self.deltas {
            for r in delta {
                leaf.register(r, t);
            }
            let s = link.sync(&mut leaf, &mut root, "delta_sync", t);
            delta_sent += s.units_sent;
            delta_added += s.units_added;
            frames += s.frames_sent;
            bytes += s.bytes_sent;
            ranges += s.ranges_differing;
        }
        let delta_files: u64 = self.deltas.iter().map(|d| d.len() as u64).sum();
        out.expect("delta_units_added", delta_added, delta_files);
        out.put("delta_units_sent", delta_sent);
        out.put("frames_sent", frames);
        out.put("bytes_sent", bytes);
        out.put("ranges_differing", ranges);

        let journals = Rep::journal_bytes(&self.root_dir) + Rep::journal_bytes(&self.leaf_dir);
        out.put("journal_bytes", journals);
        root.checkpoint(t);
        leaf.checkpoint(t);
        drop(root);
        let recovered = Rep::recover(&self.root_dir, t);
        let (theirs, ours) = (recovered.sealed_content(t), leaf.sealed_content(t));
        out.expect("recovered_root_equals_leaf", (theirs == ours) as u64, 1);
        self.content.check(warmup, "sealed_content", "sealed_content_same", &ours, &mut out);

        drop((recovered, leaf));
        let _ = std::fs::remove_dir_all(&self.root_dir);
        let _ = std::fs::remove_dir_all(&self.leaf_dir);
        out
    }

    fn layer_metrics(&self, ctx: &LayerCtx) -> LayerMetrics {
        let ms = |name| ctx.per_call(layer::REPLICA, name) * 1e3;
        let full = ctx.per_call(layer::REPLICA, "full_sync");
        vec![
            ("eventstore.replica.full_sync_s", full),
            ("eventstore.replica.us_per_unit", full * 1e6 / ctx.count("full_units_added")),
            ("eventstore.replica.confirm_ms", ms("confirm")),
            ("eventstore.replica.summary_ms", ms("summary")),
            ("eventstore.replica.units_in_range_us", ms("units_in_range") * 1e3),
            ("eventstore.replica.delta_sync_ms", ms("delta_sync")),
            ("eventstore.replica.delta_units_sent", ctx.count("delta_units_sent")),
            (
                "eventstore.replica.delta_useful_ratio",
                ctx.count("delta_units_added") / ctx.count("delta_units_sent"),
            ),
            ("eventstore.replica.frames_sent", ctx.count("frames_sent")),
            ("eventstore.replica.bytes_sent", ctx.count("bytes_sent")),
            ("eventstore.replica.ranges_differing", ctx.count("ranges_differing")),
            ("eventstore.replica.journal_bytes", ctx.count("journal_bytes")),
            ("eventstore.replica.checkpoint_ms", ms("checkpoint")),
            ("eventstore.replica.recover_ms", ms("recover")),
            ("eventstore.replica.sealed_content_ms", ms("sealed_content")),
        ]
    }

    fn work(&self, reference: &Outputs) -> (f64, &'static str) {
        let units = reference.get("full_units_added") + reference.get("delta_units_added");
        (units as f64, "units added")
    }
}
