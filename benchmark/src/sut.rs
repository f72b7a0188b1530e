//! The system under test: the only file of the harness that names a
//! `sciflow_*` item, so a later refactor of the crates breaks one file.
//!
//! Everything here calls the narrowest public surface a user of the crates
//! would — `compile`, `FlowSim`, `stress_flow`, `generate`, the three
//! `*_flow_graph` builders, `Replica`, `sync_once`, `EventStore`,
//! `merge_into`, the metastore prelude — and wraps each call into a layer in
//! a span. No test hooks: the crash of `sim-durable` is a dropped simulator.

use std::path::Path;
use std::time::Instant;

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, CleoFlowParams, WILSON_POOL};
use sciflow_core::fnv::fnv1a;
use sciflow_core::genflow::{generate, stress_flow, Archetype, StressParams};
use sciflow_core::md5::md5;
use sciflow_core::{
    compile, critical_path, CalDate, CpuPool, DataVolume, Engine, EventHandler, FaultPlan,
    FlowGraph, FlowSim, MetricsHub, MetricsRegistry, ObserveConfig, ResourceSet, RetryPolicy,
    SchedPolicy, Scheduler, SimDuration, SimReport, SimTime, Slab, SloRule, SnapshotPolicy,
    TraceRecorder,
};
use sciflow_eventstore::{
    merge_into, sync_once, EventStore, FileRecord, GradeEntry, Replica, RunRange, StoreTier,
    SyncLink,
};
use sciflow_metastore::persist::{from_sealed_bytes, sealed_bytes};
use sciflow_metastore::prelude::*;
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

use crate::stats::SplitMix;
use crate::trace::Tracer;

/// Layer names, by module.
pub mod layer {
    pub const GENFLOW: &str = "core.genflow";
    pub const COMPILED: &str = "core.compiled";
    pub const SIM: &str = "core.sim";
    pub const ENGINE: &str = "core.engine";
    pub const SLAB: &str = "core.slab";
    pub const RESOURCE: &str = "core.resource";
    pub const DURABLE: &str = "core.durable";
    pub const TRACE: &str = "core.trace";
    pub const CRITICAL: &str = "core.critical";
    pub const OBS: &str = "core.obs";
    pub const FAULT: &str = "core.fault";
    pub const FNV: &str = "core.fnv";
    pub const MD5: &str = "core.md5";
    pub const TABLE: &str = "metastore.table";
    pub const QUERY: &str = "metastore.query";
    pub const DB: &str = "metastore.db";
    pub const PERSIST: &str = "metastore.persist";
    pub const STORE: &str = "eventstore.store";
    pub const MERGE: &str = "eventstore.merge";
    pub const REPLICA: &str = "eventstore.replica";
}
use layer::*;

// ---------------------------------------------------------------------------
// Flows and simulator runs

/// A flow graph and the pools it runs against.
#[derive(Clone)]
pub struct Flow {
    graph: FlowGraph,
    pools: Vec<CpuPool>,
}

/// `(chains, depth, blocks)` of a stress flow.
pub type Shape = (usize, usize, u64);

/// The chain-parallel stress flow of the perf suite.
pub fn stress(shape: Shape, t: &mut Tracer) -> Flow {
    let (chains, depth, blocks) = shape;
    let (graph, pools) =
        t.span(GENFLOW, "stress_flow", || stress_flow(&StressParams { chains, depth, blocks }));
    Flow { graph, pools }
}

impl Flow {
    /// The same flow with time-series sampling every simulated minute and
    /// two SLO rules — what `sim-observed` and `trace-analyze` run.
    pub fn observed(&self) -> Flow {
        let mut graph = self.graph.clone();
        graph.set_observe(ObserveConfig::every(SimDuration::from_secs(60)));
        graph.set_slos(vec![
            SloRule::queue_backlog("sink-backlog", "sink", DataVolume::gib(1)),
            SloRule::escaped_taint("no-escapes", 0),
        ]);
        Flow { graph, pools: self.pools.clone() }
    }
}

/// One generated zoo flow, ready to run clean or faulted.
pub struct ZooFlow {
    clean: Flow,
    /// Digest verification on every non-source stage.
    faulted: Flow,
    plan: FaultPlan,
}

pub const ARCHETYPES: usize = Archetype::ALL.len();

impl ZooFlow {
    pub fn generate(archetype: usize, seed: u64, t: &mut Tracer) -> ZooFlow {
        let gen = t.span(GENFLOW, "generate", || generate(Archetype::ALL[archetype], seed));
        let profile = gen.corrupt_profile();
        let plan =
            t.span(FAULT, "plan_generate", || FaultPlan::generate(seed, gen.horizon, &profile));
        let faulted = Flow { graph: gen.digest_everywhere(), pools: gen.pools.clone() };
        ZooFlow { clean: Flow { graph: gen.graph, pools: gen.pools }, faulted, plan }
    }

    pub fn plan_events(&self) -> u64 {
        self.plan.len() as u64
    }
}

/// The three case-study flows at paper scale, with the suite's pools.
pub fn case_studies() -> Vec<Flow> {
    vec![
        Flow {
            graph: arecibo_flow_graph(&AreciboFlowParams::default()),
            pools: vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)],
        },
        Flow {
            graph: cleo_flow_graph(&CleoFlowParams::default()),
            pools: vec![CpuPool::new(WILSON_POOL, 64)],
        },
        Flow {
            graph: weblab_flow_graph(&WeblabFlowParams::default()),
            pools: vec![CpuPool::new(WEBLAB_POOL, 16)],
        },
    ]
}

/// A finished run's report.
#[derive(PartialEq)]
pub struct Report(SimReport);

impl Report {
    pub fn finished_at_us(&self) -> u64 {
        self.0.finished_at.as_micros()
    }

    /// The `Debug` rendering: every field of the report, for hashing.
    pub fn debug(&self) -> String {
        format!("{:?}", self.0)
    }

    /// Time-series samples of an observed run.
    pub fn ts_samples(&self) -> u64 {
        self.0.timeseries.as_ref().map_or(0, |ts| ts.samples.len() as u64)
    }
}

fn build(flow: &Flow, t: &mut Tracer) -> FlowSim {
    let pools = flow.pools.clone();
    let compiled = t.span(COMPILED, "compile", || compile(&flow.graph)).expect("flow compiles");
    t.span(SIM, "construct", || FlowSim::from_compiled(compiled, pools)).expect("pools supplied")
}

/// How a run is spanned.
#[derive(Clone, Copy)]
pub enum RunSpan {
    /// One span around `FlowSim::run`, under this name: what a user calls,
    /// and what every timed pass does.
    Whole(&'static str),
    /// `run_for` to quiescence and the report building as two spans, which
    /// also yields the event count. The budgeted loop is not the one `run`
    /// takes, so only warm-up passes use it.
    SplitReport,
}

/// A finished run: its report and, from [`RunSpan::SplitReport`], the
/// events it handled.
pub struct Ran {
    pub report: Report,
    pub events: Option<u64>,
}

fn finish(mut sim: FlowSim, span: RunSpan, t: &mut Tracer) -> Ran {
    match span {
        RunSpan::Whole(name) => {
            let report = t.span(SIM, name, || sim.run()).expect("flow converges");
            Ran { report: Report(report), events: None }
        }
        RunSpan::SplitReport => {
            t.span(SIM, "run_for", || sim.run_for(u64::MAX)).expect("flow converges");
            let events = sim.events_handled();
            let report = t.span(SIM, "report", || sim.run()).expect("report builds");
            Ran { report: Report(report), events: Some(events) }
        }
    }
}

/// compile → construct → run → report, clean.
pub fn run(flow: &Flow, span: RunSpan, t: &mut Tracer) -> Ran {
    let sim = build(flow, t);
    finish(sim, span, t)
}

impl ZooFlow {
    pub fn run_clean(&self, span: RunSpan, t: &mut Tracer) -> Ran {
        run(&self.clean, span, t)
    }

    /// The digest-everywhere graph under the corrupt-profile plan and the
    /// default retry policy.
    pub fn run_faulted(&self, span: RunSpan, t: &mut Tracer) -> Ran {
        let plan = self.plan.clone();
        let sim = build(&self.faulted, t).with_faults(plan, RetryPolicy::default());
        finish(sim, span, t)
    }
}

// ---------------------------------------------------------------------------
// Durable runs

/// A journaled run paused mid-flight; dropping it is the crash.
pub struct Paused(FlowSim);

fn journaled(flow: &Flow, every: u64, t: &mut Tracer) -> FlowSim {
    build(flow, t).with_snapshot_policy(SnapshotPolicy::EveryEvents(every))
}

/// Start a run journaled at `journal`, sealing a snapshot every `every`
/// events, and advance it by `events`.
pub fn journaled_run_for(
    flow: &Flow,
    every: u64,
    events: u64,
    journal: &Path,
    t: &mut Tracer,
) -> Paused {
    let sim = journaled(flow, every, t);
    let mut sim =
        t.span(DURABLE, "with_journal", || sim.with_journal(journal)).expect("journal created");
    t.span(DURABLE, "journaled_run", || sim.run_for(events)).expect("journaled run advances");
    Paused(sim)
}

impl Paused {
    pub fn events_handled(&self) -> u64 {
        self.0.events_handled()
    }

    /// Write the mid-run state as a sealed single-snapshot file.
    pub fn snapshot_to(&self, path: &Path, t: &mut Tracer) {
        t.span(DURABLE, "snapshot_to", || self.0.snapshot_to(path)).expect("snapshot written");
    }
}

/// A fresh simulator resumed from `journal` and run to the end.
pub fn resume_and_finish(flow: &Flow, every: u64, journal: &Path, t: &mut Tracer) -> Report {
    let sim = journaled(flow, every, t);
    let sim = t.span(DURABLE, "resume_from", || sim.resume_from(journal)).expect("journal resumes");
    Report(t.span(DURABLE, "finish", || sim.run()).expect("resumed run converges"))
}

/// The bare reference of a durable pass: the same `events` without a
/// journal (span `bare_run_for`), then the rest of the run.
pub fn bare_run_for(flow: &Flow, events: u64, t: &mut Tracer) -> Report {
    let mut sim = build(flow, t);
    t.span(SIM, "bare_run_for", || sim.run_for(events)).expect("bare run advances");
    Report(t.span(SIM, "bare_finish", || sim.run()).expect("flow converges"))
}

// ---------------------------------------------------------------------------
// Telemetry

/// A recorded trace.
pub struct Recorded(TraceRecorder);

impl Recorded {
    pub fn events(&self) -> u64 {
        self.0.len() as u64
    }
}

/// A metrics hub after a run.
pub struct Hub(MetricsHub);

impl Hub {
    pub fn render_prometheus(&self, t: &mut Tracer) -> String {
        t.span(OBS, "render_prometheus", || self.0.render_prometheus())
    }

    pub fn render_json(&self, t: &mut Tracer) -> String {
        t.span(OBS, "render_json", || self.0.render_json())
    }

    pub fn series(&self) -> u64 {
        self.0.len() as u64
    }

    /// High-water mark of the pending-event heap, as the run recorded it.
    pub fn peak_pending(&self) -> u64 {
        self.0.value("engine_peak_pending").unwrap_or(0)
    }

    /// High-water mark of the payload slab, as the run recorded it.
    pub fn slab_high_water(&self) -> u64 {
        self.0.value("engine_slab_high_water").unwrap_or(0)
    }
}

/// Run an observed flow with a `TraceRecorder` and a `MetricsHub` attached.
pub fn run_observed(flow: &Flow, t: &mut Tracer) -> (Report, Recorded, Hub) {
    let recorder = TraceRecorder::new();
    let hub = MetricsHub::new();
    let sim = build(flow, t).with_observer(recorder.clone()).with_metrics(hub.clone());
    let report = t.span(TRACE, "observed_run", || sim.run()).expect("flow converges");
    (Report(report), Recorded(recorder), Hub(hub))
}

/// What one analysis of a recorded trace produced.
pub struct Analysis {
    pub segments: u64,
    pub spans: u64,
    pub jsonl: String,
    pub chrome: String,
}

/// snapshot → critical path → spans → JSONL → Chrome trace.
pub fn analyze(recorded: &Recorded, run: &Report, t: &mut Tracer) -> Analysis {
    let snapshot = t.span(TRACE, "snapshot", || recorded.0.snapshot());
    let path = t.span(CRITICAL, "path", || critical_path(&snapshot, run.0.finished_at));
    let spans = t.span(TRACE, "spans", || snapshot.spans());
    let jsonl = t.span(TRACE, "jsonl", || snapshot.jsonl());
    let chrome = t.span(TRACE, "chrome", || snapshot.chrome_trace());
    Analysis { segments: path.segments.len() as u64, spans: spans.len() as u64, jsonl, chrome }
}

// ---------------------------------------------------------------------------
// EventStore

/// One file record.
#[derive(Clone)]
pub struct Record(FileRecord);

/// `(year, month, day)`.
pub type Date = (u16, u8, u8);

fn cal((y, m, d): Date) -> CalDate {
    CalDate::new(y, m, d).expect("harness dates are valid")
}

impl Record {
    /// All metadata a pure function of the arguments.
    pub fn new(id: u64, run: u32, kind: &str, generation: u32, registered: Date) -> Record {
        Record(FileRecord {
            id,
            runs: RunRange::single(run),
            kind: kind.to_string(),
            version: format!("v{generation}"),
            site: "Cornell".into(),
            registered: cal(registered),
            location: format!("/bench/{kind}/{id}"),
            prov_digest: md5(format!("{id}:{generation}").as_bytes()),
        })
    }

    pub fn id(&self) -> u64 {
        self.0.id
    }
}

#[derive(Clone, Copy)]
pub enum Tier {
    Personal,
    Group,
    Collaboration,
}

impl From<Tier> for StoreTier {
    fn from(t: Tier) -> StoreTier {
        match t {
            Tier::Personal => StoreTier::Personal,
            Tier::Group => StoreTier::Group,
            Tier::Collaboration => StoreTier::Collaboration,
        }
    }
}

/// An owned EventStore: a personal store to merge, or a reloaded copy.
pub struct Store(EventStore);

/// Read access to a store, owned or inside a replica.
#[derive(Clone, Copy)]
pub struct StoreView<'a>(&'a EventStore);

impl Store {
    /// A personal store holding `records`, as a physicist ships one.
    pub fn personal(records: &[Record]) -> Store {
        let mut store = EventStore::new(StoreTier::Personal);
        for r in records {
            store.register_file(&r.0).expect("personal ids are distinct");
        }
        Store(store)
    }

    pub fn view(&self) -> StoreView<'_> {
        StoreView(&self.0)
    }

    pub fn from_bytes(bytes: &[u8], t: &mut Tracer) -> Store {
        Store(t.span(STORE, "from_bytes", || EventStore::from_bytes(bytes)).expect("round trip"))
    }

    /// Merge `source` into this store; returns `(added, skipped, quarantined)`.
    pub fn merge_from(&mut self, source: &Store, t: &mut Tracer) -> (u64, u64, u64) {
        let r = t.span(MERGE, "merge_into", || merge_into(&mut self.0, &source.0)).expect("merge");
        (r.files_added as u64, r.files_skipped as u64, r.files_quarantined as u64)
    }
}

impl StoreView<'_> {
    pub fn file_count(&self) -> u64 {
        self.0.file_count() as u64
    }

    /// Resolve the consistent view of `grade` at `at` and open the files of
    /// each `(run, kind)`; returns first-time files and files found.
    pub fn resolve_and_open(
        &self,
        grade: &str,
        at: Date,
        lookups: &[(u32, &str)],
        t: &mut Tracer,
    ) -> (u64, u64) {
        let view =
            t.span(STORE, "resolve", || self.0.resolve(grade, cal(at))).expect("grade declared");
        let mut found = 0;
        for (run, kind) in lookups {
            found += t
                .span(STORE, "files_for", || self.0.files_for(&view, *run, kind))
                .expect("files scan")
                .len() as u64;
        }
        (view.first_time.len() as u64, found)
    }

    /// Look up each id; returns how many exist.
    pub fn lookup(&self, ids: impl Iterator<Item = u64>, t: &mut Tracer) -> u64 {
        let mut hits = 0;
        for id in ids {
            hits += t.span(STORE, "file", || self.0.file(id)).expect("lookup").is_some() as u64;
        }
        hits
    }

    pub fn to_bytes(&self, t: &mut Tracer) -> Vec<u8> {
        t.span(STORE, "to_bytes", || self.0.to_bytes())
    }
}

/// One replica of a replicated EventStore.
pub struct Rep(Replica);

/// What one anti-entropy session did.
#[derive(Clone, Copy)]
pub struct Session {
    pub in_sync: bool,
    pub units_sent: u64,
    pub units_added: u64,
    pub ranges_differing: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
}

/// A clean link between two replicas.
pub struct Link(SyncLink);

impl Link {
    pub fn clean() -> Link {
        Link(SyncLink::clean())
    }

    /// One `sync_once` session, `a` initiating, under span `name`.
    pub fn sync(
        &mut self,
        a: &mut Rep,
        b: &mut Rep,
        name: &'static str,
        t: &mut Tracer,
    ) -> Session {
        let r = t.span(REPLICA, name, || sync_once(&mut a.0, &mut b.0, &mut self.0)).expect("sync");
        Session {
            in_sync: r.in_sync,
            units_sent: r.units_sent as u64,
            units_added: r.units_added as u64,
            ranges_differing: r.ranges_differing as u64,
            frames_sent: r.frames_sent,
            bytes_sent: r.bytes_sent,
        }
    }
}

impl Rep {
    pub fn in_memory(id: u16, tier: Tier) -> Rep {
        Rep(Replica::new(id, tier.into()))
    }

    /// A durable replica: snapshot and apply journal under `dir`.
    pub fn durable(id: u16, tier: Tier, dir: &Path) -> Rep {
        Rep(Replica::durable(id, tier.into(), dir).expect("replica directory is writable"))
    }

    pub fn register(&mut self, r: &Record, t: &mut Tracer) {
        t.span(REPLICA, "register", || self.0.register(&r.0)).expect("register");
    }

    pub fn revise(&mut self, r: &Record, t: &mut Tracer) {
        t.span(REPLICA, "revise", || self.0.revise(&r.0)).expect("revise");
    }

    pub fn quarantine(&mut self, id: u64, t: &mut Tracer) {
        t.span(REPLICA, "quarantine", || self.0.quarantine(id, "bench integrity flag"))
            .expect("quarantine");
    }

    pub fn release(&mut self, id: u64, t: &mut Tracer) {
        t.span(REPLICA, "release", || self.0.release(id)).expect("release");
    }

    /// Declare that `grade` on `date` reads `version` of `kind` for runs
    /// `1..=last_run`.
    pub fn declare_snapshot(
        &mut self,
        grade: &str,
        date: Date,
        last_run: u32,
        kind: &str,
        version: &str,
        t: &mut Tracer,
    ) {
        let entry = GradeEntry {
            runs: RunRange::new(1, last_run).expect("ascending range"),
            kind: kind.into(),
            version: version.into(),
        };
        t.span(REPLICA, "declare_snapshot", || {
            self.0.declare_snapshot(grade, cal(date), vec![entry])
        })
        .expect("snapshot dates ascend");
    }

    /// The replica's store, for the read phase.
    pub fn store(&self) -> StoreView<'_> {
        StoreView(self.0.store())
    }

    /// The digest summary a session opens with; returns its store id.
    pub fn summary(&self, t: &mut Tracer) -> u64 {
        u64::from(t.span(REPLICA, "summary", || self.0.summary()).expect("summary").store)
    }

    /// Units of digest range `r`.
    pub fn units_in_range(&self, r: usize, t: &mut Tracer) -> u64 {
        t.span(REPLICA, "units_in_range", || self.0.units_in_range(r)).expect("range").len() as u64
    }

    pub fn sealed_content(&self, t: &mut Tracer) -> Vec<u8> {
        t.span(REPLICA, "sealed_content", || self.0.sealed_content()).expect("content")
    }

    pub fn checkpoint(&mut self, t: &mut Tracer) {
        t.span(REPLICA, "checkpoint", || self.0.checkpoint()).expect("checkpoint");
    }

    /// Size of the apply journal of the durable replica rooted at `dir`.
    pub fn journal_bytes(dir: &Path) -> u64 {
        std::fs::metadata(dir.join("journal.esr")).map_or(0, |m| m.len())
    }

    /// Recover a durable replica from `dir`, as after a crash.
    pub fn recover(dir: &Path, t: &mut Tracer) -> Rep {
        Rep(t.span(REPLICA, "recover", || Replica::recover(dir)).expect("replica recovers"))
    }
}

// ---------------------------------------------------------------------------
// Probes: a tight loop over one layer's public functions. Traced run only.

/// A probe's result: seconds spent and operations done.
pub struct Probed {
    pub secs: f64,
    pub ops: u64,
}

impl Probed {
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }

    pub fn us_per_op(&self) -> f64 {
        self.secs * 1e6 / self.ops as f64
    }

    /// Throughput when `ops` counts bytes.
    pub fn mb_per_s(&self) -> f64 {
        self.ops as f64 / 1e6 / self.secs
    }
}

/// Seconds `f` took, under a `probe` span of `layer`.
fn probe(t: &mut Tracer, layer: &'static str, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    t.span(layer, "probe", f);
    start.elapsed().as_secs_f64()
}

/// Pops an event and schedules it again, `left` times.
struct Hold {
    rng: SplitMix,
    left: u64,
    /// Reschedule at `now` (the due-queue path) instead of a later time.
    immediate: bool,
}

impl EventHandler for Hold {
    type Event = u32;
    fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let delay = if self.immediate { 0 } else { 1 + self.rng.below(1_000_000) };
        sched.schedule(sched.now() + SimDuration::from_micros(delay), ev);
    }
}

/// The classic hold model: `pending` events in the heap, each pop scheduled
/// again, `events` times — at a seeded later time, or with `at_now` at the
/// current time, which is the due-queue fast path.
pub fn probe_engine(seed: u64, pending: u32, events: u64, at_now: bool, t: &mut Tracer) -> Probed {
    let mut rng = SplitMix(seed);
    let mut engine: Engine<u32> = Engine::new();
    for ev in 0..pending {
        let at = SimTime::ZERO + SimDuration::from_micros(1 + rng.below(1_000_000));
        engine.scheduler().schedule(at, ev);
    }
    let mut hold = Hold { rng, left: events, immediate: at_now };
    let mut handled = 0;
    let secs = probe(t, ENGINE, || {
        handled = engine.run_counted(&mut hold).expect("under the event cap").events_handled;
    });
    assert_eq!(handled, events + u64::from(pending), "the hold model handles every event once");
    Probed { secs, ops: handled }
}

/// Retire a seeded live slot and insert into the freed one, `rounds` times.
pub fn probe_slab(seed: u64, live: usize, rounds: u64, t: &mut Tracer) -> Probed {
    let mut rng = SplitMix(seed);
    let mut slab: Slab<u64> = Slab::new();
    let mut keys: Vec<_> = (0..live as u64).map(|v| slab.insert(v)).collect();
    let mut sum = 0u64;
    let secs = probe(t, SLAB, || {
        for round in 0..rounds {
            let i = rng.below(live as u64) as usize;
            sum = sum.wrapping_add(slab.retire(keys[i].slot()).expect("slot is live"));
            keys[i] = slab.insert(round);
        }
    });
    assert_eq!(slab.high_water(), live, "churn never grows the slab");
    std::hint::black_box(sum);
    Probed { secs, ops: 2 * rounds }
}

/// A four-unit pool contended by the stages of a small stress graph: each
/// stage acquires or enlists, and every release serves the front waiter.
pub fn probe_resource(rounds: u64, t: &mut Tracer) -> Probed {
    let (graph, _) = stress_flow(&StressParams { chains: 2, depth: 8, blocks: 1 });
    let stages: Vec<_> = graph.stage_ids().collect();
    let mut set = ResourceSet::new(stages.len(), SchedPolicy::default());
    let pool = set.add_pool("probe-pool", 4);
    let mut ops = 0u64;
    let secs = probe(t, RESOURCE, || {
        for _ in 0..rounds {
            for &stage in &stages {
                if set.free(pool) > 0 {
                    set.acquire(pool, 1);
                } else {
                    set.enlist(pool, stage);
                }
                ops += 2;
            }
            while set.in_use(pool) > 0 {
                set.release(pool, 1);
                ops += 1;
                if set.front_waiter(pool).is_some() {
                    set.acquire(pool, 1);
                    set.after_dispatch(pool, false);
                    ops += 3;
                }
            }
        }
    });
    Probed { secs, ops }
}

/// `counter_add` on a registry cycling over 64 series.
pub fn probe_counter_add(rounds: u64, t: &mut Tracer) -> Probed {
    let names: Vec<String> = (0..64).map(|i| format!("probe_total{{series=\"{i}\"}}")).collect();
    let mut reg = MetricsRegistry::new();
    let secs = probe(t, OBS, || {
        for i in 0..rounds {
            reg.counter_add(&names[(i % 64) as usize], 1);
        }
    });
    assert_eq!(reg.len(), 64);
    Probed { secs, ops: rounds }
}

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

pub fn probe_fnv(seed: u64, len: usize, rounds: u64, t: &mut Tracer) -> Probed {
    let buf = seeded_bytes(seed, len);
    let mut acc = 0u64;
    let secs = probe(t, FNV, || {
        for _ in 0..rounds {
            acc ^= fnv1a(std::hint::black_box(&buf));
        }
    });
    std::hint::black_box(acc);
    Probed { secs, ops: rounds * len as u64 }
}

pub fn probe_md5(seed: u64, len: usize, rounds: u64, t: &mut Tracer) -> Probed {
    let buf = seeded_bytes(seed, len);
    let secs = probe(t, MD5, || {
        for _ in 0..rounds {
            std::hint::black_box(md5(std::hint::black_box(&buf)));
        }
    });
    Probed { secs, ops: rounds * len as u64 }
}

/// The metastore probes' results, in catalogue order.
pub struct MetastoreProbes {
    pub insert: Probed,
    pub get_by_key: Probed,
    pub select_indexed: Probed,
    pub select_scan: Probed,
    pub execute: Probed,
    pub seal: Probed,
    pub unseal: Probed,
}

fn probe_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", ValueType::Int),
        ColumnDef::new("run", ValueType::Int),
        ColumnDef::new("kind", ValueType::Text),
        ColumnDef::new("location", ValueType::Text),
    ])
    .expect("probe schema is valid")
    .with_primary_key("id")
    .expect("id is a column")
}

fn probe_row(id: u64) -> Vec<Value> {
    vec![
        Value::Int(id as i64),
        Value::Int((id % 500) as i64),
        Value::Text(if id.is_multiple_of(3) { "mc" } else { "recon" }.into()),
        Value::Text(format!("/bench/probe/{id}")),
    ]
}

/// `rows` rows inserted in seeded order into a keyed table with one
/// secondary index, then point lookups, indexed and scanning selects, one
/// batch transaction, and a sealed round trip of the database.
pub fn probe_metastore(seed: u64, rows: u64, t: &mut Tracer) -> MetastoreProbes {
    let mut rng = SplitMix(seed);
    let mut ids: Vec<u64> = (0..rows).collect();
    rng.shuffle(&mut ids);

    let mut table = Table::new("probe", probe_schema());
    table.create_index("run").expect("run is a column");
    let built: Vec<Vec<Value>> = ids.iter().map(|&id| probe_row(id)).collect();
    let insert = probe(t, TABLE, || {
        for row in built {
            table.insert(row).expect("ids are distinct");
        }
    });

    let keys: Vec<Value> = ids.iter().map(|&id| Value::Int(id as i64)).collect();
    let mut hits = 0u64;
    let get_by_key = probe(t, TABLE, || {
        for key in &keys {
            hits += table.get_by_key(key).expect("keyed table").is_some() as u64;
        }
    });
    assert_eq!(hits, rows);

    let selects = 200u64;
    let mut matched = 0usize;
    let select_indexed = probe(t, QUERY, || {
        for run in 0..selects {
            let q = Query::filter(Predicate::Eq(1, Value::Int(run as i64)));
            let got = select(&table, &q).expect("select");
            assert_eq!(got.path, AccessPath::IndexEq);
            matched += got.rows.len();
        }
    });
    let scans = 20u64;
    let select_scan = probe(t, QUERY, || {
        for i in 0..scans {
            let q = Query::filter(Predicate::Eq(3, Value::Text(format!("/bench/probe/{i}"))));
            matched += select(&table, &q).expect("select").rows.len();
        }
    });
    assert_eq!(matched as u64, selects * (rows / 500) + scans);

    let mut db = Database::new();
    db.create_table("probe", probe_schema()).expect("fresh database");
    let mut txn = Transaction::new();
    for &id in &ids {
        txn.insert("probe", probe_row(id));
    }
    let execute = probe(t, DB, || db.execute(&txn).expect("batch applies"));

    let mut sealed = Vec::new();
    let seal = probe(t, PERSIST, || sealed = sealed_bytes(&db));
    let mut reloaded = 0;
    let unseal = probe(t, PERSIST, || {
        reloaded = from_sealed_bytes(&sealed).expect("seal verifies").table("probe").unwrap().len();
    });
    assert_eq!(reloaded as u64, rows);

    let bytes = sealed.len() as u64;
    MetastoreProbes {
        insert: Probed { secs: insert, ops: rows },
        get_by_key: Probed { secs: get_by_key, ops: rows },
        select_indexed: Probed { secs: select_indexed, ops: selects },
        select_scan: Probed { secs: select_scan, ops: scans },
        execute: Probed { secs: execute, ops: rows },
        seal: Probed { secs: seal, ops: bytes },
        unseal: Probed { secs: unseal, ops: bytes },
    }
}
