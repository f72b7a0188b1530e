//! Declarative flow construction: [`FlowSpec`] and per-kind stage specs.
//!
//! The three case-study crates all build the same thing — a named DAG of
//! sources, transports, processing steps and archives — and hand-wiring
//! [`FlowGraph`] ids gets noisy as flows grow. [`FlowSpec`] is the
//! declarative alternative: stages are declared in order, each naming the
//! upstream stages that feed it, and [`FlowSpec::build`] resolves names,
//! wires edges, and validates the result.
//!
//! ```
//! use sciflow_core::spec::{FlowSpec, SourceSpec, TransferSpec};
//! use sciflow_core::units::{DataRate, DataVolume, SimDuration};
//!
//! let graph = FlowSpec::new()
//!     .source(
//!         "acquire",
//!         SourceSpec::new(DataVolume::tb(14), SimDuration::from_days(7), 4),
//!     )
//!     .transfer(
//!         "ship-disks",
//!         TransferSpec::new(DataRate::tb_per_day(14.0 / 3.0))
//!             .latency(SimDuration::from_days(1)),
//!         &["acquire"],
//!     )
//!     .archive("tape-archive", &["ship-disks"])
//!     .build()
//!     .unwrap();
//! assert_eq!(graph.len(), 3);
//! ```
//!
//! Stage declaration order is preserved in the built graph, and so is edge
//! order (each stage's upstream list wires in the order given; late edges
//! added with [`FlowSpec::feed`] come last) — replays of a spec-built flow
//! are deterministic, and a spec rewrite of a hand-wired graph can be made
//! wire-for-wire identical.
//!
//! Each `*Spec` struct is the one declaration of its stage kind's
//! parameters: a [`StageKind`] variant carries it, the compiled flow keeps
//! it, and the simulator builds the stage's behavior from a reference to
//! it. `new` and the builder methods give the defaults; the fields are
//! public for code that reads a kind or writes one out in full.

use crate::error::{CoreError, CoreResult};
use crate::graph::{CheckpointPolicy, FlowGraph, StageId, StageKind, VerifyPolicy};
use crate::units::{DataRate, DataVolume, SimDuration};
use std::collections::HashMap;

/// A [`StageKind::Source`]: emits `blocks` blocks of `block` bytes, one
/// every `interval`, starting at time zero. Models data acquisition
/// (observing sessions, runs, crawl deliveries).
#[derive(Debug, Clone)]
pub struct SourceSpec {
    pub block: DataVolume,
    pub interval: SimDuration,
    pub blocks: u64,
}

impl SourceSpec {
    pub fn new(block: DataVolume, interval: SimDuration, blocks: u64) -> Self {
        SourceSpec { block, interval, blocks }
    }
}

/// A [`StageKind::Process`]: consumes a block using `cpus_per_task`
/// processors from the named pool at `rate_per_cpu` each, then emits
/// `output_ratio` × input volume. One CPU per task, unchunked, pass-through
/// output, no scratch space and no input retention unless the builder
/// methods say otherwise.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    pub rate_per_cpu: DataRate,
    /// The shared CPU pool the stage's tasks run on, supplied by name to
    /// the simulator.
    pub pool: String,
    pub cpus_per_task: u32,
    /// Splits arriving blocks into independently schedulable tasks of at
    /// most that size — the data parallelism of stages like dedispersion,
    /// where each telescope pointing of a 14 TB weekly block is processed
    /// independently. `None` processes each arriving block as one task.
    pub chunk: Option<DataVolume>,
    pub output_ratio: f64,
    /// Extra scratch space held while the task runs, as a fraction of its
    /// input (the Arecibo dedispersion step is "iterative, requiring
    /// operations on both the dedispersed time series and the raw data").
    pub workspace_ratio: f64,
    /// Keeps the input allocated after completion (archival retention
    /// rather than scratch).
    pub retain_input: bool,
    /// How much work a node crash can destroy (see [`CheckpointPolicy`]).
    pub checkpoint: CheckpointPolicy,
}

impl ProcessSpec {
    pub fn new(rate_per_cpu: DataRate, pool: impl Into<String>) -> Self {
        ProcessSpec {
            rate_per_cpu,
            pool: pool.into(),
            cpus_per_task: 1,
            chunk: None,
            output_ratio: 1.0,
            workspace_ratio: 0.0,
            retain_input: false,
            checkpoint: CheckpointPolicy::None,
        }
    }

    /// Processors claimed from the pool per task.
    pub fn cpus_per_task(mut self, cpus: u32) -> Self {
        self.cpus_per_task = cpus;
        self
    }

    /// Split arriving blocks into independently schedulable tasks of at most
    /// `chunk` bytes.
    pub fn chunk(mut self, chunk: DataVolume) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Output volume as a fraction of input volume.
    pub fn output_ratio(mut self, ratio: f64) -> Self {
        self.output_ratio = ratio;
        self
    }

    /// Extra scratch space held while a task runs, as a fraction of input.
    pub fn workspace_ratio(mut self, ratio: f64) -> Self {
        self.workspace_ratio = ratio;
        self
    }

    /// Keep the input allocated permanently after the task completes.
    pub fn retain_input(mut self, retain: bool) -> Self {
        self.retain_input = retain;
        self
    }

    /// Bound the work a node crash can destroy (see [`CheckpointPolicy`]).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }
}

/// A [`StageKind::Transfer`], a transport channel (network link or physical
/// shipment lane): `latency + volume / rate` per block, with up to
/// `channels` blocks in flight at once. `channels: 1` is a strictly serial
/// link; a disk shipping lane with several crates in transit uses
/// `channels > 1`. Zero latency and a single channel unless the builder
/// methods say otherwise.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    pub rate: DataRate,
    pub latency: SimDuration,
    pub channels: u32,
}

impl TransferSpec {
    pub fn new(rate: DataRate) -> Self {
        TransferSpec { rate, latency: SimDuration::ZERO, channels: 1 }
    }

    /// Fixed per-block latency on top of the volume/rate time.
    pub fn latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Blocks that may be in flight at once (parallel shipping lanes).
    pub fn channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }
}

/// A [`StageKind::Filter`], an online trigger: inspects each block at `rate`
/// (one block at a time, in real time) and forwards only `accept_ratio` of
/// its volume; the rest is discarded immediately. Models selection stages
/// like the CMS first-level trigger, where data streams to tape at
/// 200 MB/s only after substantial real-time filtering.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    pub rate: DataRate,
    pub accept_ratio: f64,
    /// How much work a node crash can destroy (see [`CheckpointPolicy`]).
    pub checkpoint: CheckpointPolicy,
}

impl FilterSpec {
    pub fn new(rate: DataRate, accept_ratio: f64) -> Self {
        FilterSpec { rate, accept_ratio, checkpoint: CheckpointPolicy::None }
    }

    /// Bound the work a node crash can destroy (see [`CheckpointPolicy`]).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }
}

/// A [`StageKind::Batcher`], an accumulation point: buffers arriving blocks
/// and emits one merged block of their combined volume once `batch` blocks
/// have gathered, or `linger` after the first buffered block — whichever
/// comes first. Models aggregation ahead of an expensive hop
/// (tar-before-tape, small crawl deliveries coalesced before a WAN
/// transfer). The merge itself is instantaneous: a batcher holds storage,
/// not compute.
#[derive(Debug, Clone)]
pub struct BatcherSpec {
    pub batch: u64,
    pub linger: SimDuration,
}

impl BatcherSpec {
    pub fn new(batch: u64, linger: SimDuration) -> Self {
        BatcherSpec { batch, linger }
    }
}

/// A [`StageKind::Dedup`], duplicate elimination: inspects each block
/// serially at `rate` (like a filter) and forwards `unique_ratio` of its
/// volume once the index has warmed up (see [`DedupSpec::window`]; blocks
/// inspected before then pass in full). Models crawl ingest, where
/// re-fetched pages collapse against the page store only once the store is
/// warm.
#[derive(Debug, Clone)]
pub struct DedupSpec {
    pub rate: DataRate,
    pub unique_ratio: f64,
    /// The first `window` inspected blocks pass in full, since an empty
    /// dedup index has nothing to match against.
    pub window: u64,
}

impl DedupSpec {
    pub fn new(rate: DataRate, unique_ratio: f64) -> Self {
        DedupSpec { rate, unique_ratio, window: 0 }
    }

    /// The first `window` inspected blocks pass in full — a cold dedup index
    /// has nothing to collapse against (default 0: steady state from the
    /// first block).
    pub fn window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }
}

/// Declarative builder for a [`FlowGraph`]. Stages are declared in order,
/// wired by upstream *names*; [`FlowSpec::build`] resolves and validates.
#[derive(Debug, Clone, Default)]
pub struct FlowSpec {
    stages: Vec<(String, StageKind, Vec<String>)>,
    feeds: Vec<(String, String)>,
    verifies: Vec<(String, VerifyPolicy)>,
}

impl FlowSpec {
    pub fn new() -> Self {
        Self::default()
    }

    fn stage(mut self, name: impl Into<String>, kind: StageKind, upstream: &[&str]) -> Self {
        self.stages.push((name.into(), kind, upstream.iter().map(|s| s.to_string()).collect()));
        self
    }

    /// Declare a source stage (sources have no upstreams).
    pub fn source(self, name: impl Into<String>, spec: SourceSpec) -> Self {
        self.stage(name, StageKind::Source(spec), &[])
    }

    /// Declare a processing stage fed by the named upstream stages.
    pub fn process(self, name: impl Into<String>, spec: ProcessSpec, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Process(spec), upstream)
    }

    /// Declare a transfer stage fed by the named upstream stages.
    pub fn transfer(self, name: impl Into<String>, spec: TransferSpec, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Transfer(spec), upstream)
    }

    /// Declare a filter stage fed by the named upstream stages.
    pub fn filter(self, name: impl Into<String>, spec: FilterSpec, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Filter(spec), upstream)
    }

    /// Declare a batcher stage fed by the named upstream stages.
    pub fn batcher(self, name: impl Into<String>, spec: BatcherSpec, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Batcher(spec), upstream)
    }

    /// Declare a dedup stage fed by the named upstream stages.
    pub fn dedup(self, name: impl Into<String>, spec: DedupSpec, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Dedup(spec), upstream)
    }

    /// Declare an archive stage fed by the named upstream stages.
    pub fn archive(self, name: impl Into<String>, upstream: &[&str]) -> Self {
        self.stage(name, StageKind::Archive, upstream)
    }

    /// Add an edge between two already-declared stages. Use this for edges
    /// that cannot be expressed in declaration order (a stage feeding into
    /// one declared before it).
    pub fn feed(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.feeds.push((from.into(), to.into()));
        self
    }

    /// Check the integrity of blocks arriving at the named stage (declared
    /// anywhere before [`FlowSpec::build`] is called). See
    /// [`VerifyPolicy`] for what each policy catches and costs.
    pub fn verify(mut self, name: impl Into<String>, policy: VerifyPolicy) -> Self {
        self.verifies.push((name.into(), policy));
        self
    }

    /// Resolve names, wire edges, and validate the resulting graph.
    pub fn build(self) -> CoreResult<FlowGraph> {
        let mut g = FlowGraph::new();
        // Name resolution through `FlowGraph::find` is a linear scan, which
        // makes wiring O(stages × edges) on large specs. Intern names into a
        // map as stages are declared instead. Duplicate names keep the first
        // id — `find`'s first-match behavior — so the (invalid) graph that
        // reaches `validate()` is identical either way.
        let mut index: HashMap<String, StageId> = HashMap::with_capacity(self.stages.len());
        for (name, kind, upstream) in self.stages {
            let key = name.clone();
            let id = g.add_stage(name, kind);
            index.entry(key).or_insert(id);
            for up in upstream {
                let uid = *index.get(&up).ok_or_else(|| CoreError::InvalidTopology {
                    detail: format!(
                        "stage `{}` feeds from `{up}`, which is not declared before it",
                        g.stage(id).name
                    ),
                })?;
                g.connect(uid, id)?;
            }
        }
        for (from, to) in self.feeds {
            let fid = *index.get(&from).ok_or_else(|| CoreError::InvalidTopology {
                detail: format!("feed names undeclared stage `{from}`"),
            })?;
            let tid = *index.get(&to).ok_or_else(|| CoreError::InvalidTopology {
                detail: format!("feed names undeclared stage `{to}`"),
            })?;
            g.connect(fid, tid)?;
        }
        for (name, policy) in self.verifies {
            let id = *index.get(&name).ok_or_else(|| CoreError::InvalidTopology {
                detail: format!("verify names undeclared stage `{name}`"),
            })?;
            g.set_verify(id, policy);
        }
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb_source() -> SourceSpec {
        SourceSpec::new(DataVolume::gb(1), SimDuration::from_hours(1), 2)
    }

    #[test]
    fn builds_a_wired_validated_graph() {
        let g = FlowSpec::new()
            .source("src", gb_source())
            .process(
                "work",
                ProcessSpec::new(DataRate::mb_per_sec(10.0), "pool").output_ratio(0.5),
                &["src"],
            )
            .filter("trigger", FilterSpec::new(DataRate::mb_per_sec(200.0), 0.1), &["work"])
            .transfer("link", TransferSpec::new(DataRate::mb_per_sec(100.0)), &["trigger"])
            .archive("store", &["link"])
            .build()
            .unwrap();
        assert_eq!(g.len(), 5);
        let work = g.find("work").unwrap();
        assert_eq!(g.upstream(work), &[g.find("src").unwrap()]);
        assert_eq!(g.downstream(work), &[g.find("trigger").unwrap()]);
    }

    #[test]
    fn fan_out_and_late_feed_edges() {
        let g = FlowSpec::new()
            .source("src", gb_source())
            .archive("store", &["src"])
            .transfer("link", TransferSpec::new(DataRate::mb_per_sec(1.0)), &["src"])
            // `link` also feeds `store`, declared before it: a late edge.
            .feed("link", "store")
            .build()
            .unwrap();
        let src = g.find("src").unwrap();
        let store = g.find("store").unwrap();
        let link = g.find("link").unwrap();
        assert_eq!(g.downstream(src), &[store, link]);
        assert_eq!(g.upstream(store), &[src, link]);
    }

    #[test]
    fn unknown_upstream_is_an_error() {
        let err = FlowSpec::new()
            .source("src", gb_source())
            .archive("store", &["nope"])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTopology { .. }), "{err:?}");
    }

    #[test]
    fn forward_reference_is_an_error() {
        // Upstreams must be declared first; use `feed` for late edges.
        let err = FlowSpec::new()
            .archive("store", &["src"])
            .source("src", gb_source())
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTopology { .. }), "{err:?}");
    }

    #[test]
    fn unknown_feed_is_an_error() {
        let err = FlowSpec::new()
            .source("src", gb_source())
            .archive("store", &["src"])
            .feed("ghost", "store")
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTopology { .. }), "{err:?}");
    }

    #[test]
    fn verify_policies_are_resolved_by_name() {
        let g = FlowSpec::new()
            .source("src", gb_source())
            .transfer("link", TransferSpec::new(DataRate::mb_per_sec(1.0)), &["src"])
            .archive("store", &["link"])
            .verify("store", VerifyPolicy::digest(DataRate::mb_per_sec(300.0)))
            .build()
            .unwrap();
        let store = g.find("store").unwrap();
        assert_eq!(g.stage(store).verify, VerifyPolicy::digest(DataRate::mb_per_sec(300.0)));
        let link = g.find("link").unwrap();
        assert!(g.stage(link).verify.is_none());
    }

    #[test]
    fn verify_on_undeclared_stage_is_an_error() {
        let err = FlowSpec::new()
            .source("src", gb_source())
            .archive("store", &["src"])
            .verify("ghost", VerifyPolicy::digest(DataRate::mb_per_sec(300.0)))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTopology { .. }), "{err:?}");
    }

    #[test]
    fn batcher_and_dedup_specs_build() {
        let g = FlowSpec::new()
            .source("src", gb_source())
            .batcher("bundle", BatcherSpec::new(4, SimDuration::from_mins(30)), &["src"])
            .dedup(
                "collapse",
                DedupSpec::new(DataRate::mb_per_sec(80.0), 0.3).window(2),
                &["bundle"],
            )
            .archive("store", &["collapse"])
            .build()
            .unwrap();
        let bundle = g.find("bundle").unwrap();
        assert!(matches!(g.stage(bundle).kind, StageKind::Batcher(BatcherSpec { batch: 4, .. })));
        let collapse = g.find("collapse").unwrap();
        assert!(matches!(g.stage(collapse).kind, StageKind::Dedup(DedupSpec { window: 2, .. })));
    }

    #[test]
    fn orphan_source_fails_build_with_a_typed_error() {
        // The generator's near-miss class: a declared source nothing reads.
        let err = FlowSpec::new()
            .source("src", gb_source())
            .source("stray", gb_source())
            .archive("store", &["src"])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::OrphanStage { .. }), "{err:?}");
    }

    #[test]
    fn spec_graphs_validate_like_hand_wired_ones() {
        // A stage with no inputs that is not a source still fails validation.
        let err =
            FlowSpec::new().source("src", gb_source()).archive("orphan", &[]).build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidTopology { .. }), "{err:?}");
    }
}
