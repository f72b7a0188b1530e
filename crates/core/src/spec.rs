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

use crate::error::{CoreError, CoreResult};
use crate::graph::{FlowGraph, StageId, StageKind};
use crate::units::{DataRate, DataVolume, SimDuration, SimTime};
use std::collections::HashMap;

pub use crate::graph::{CheckpointPolicy, VerifyPolicy};

/// Spec for a [`StageKind::Source`]: emits `blocks` blocks of `block` bytes,
/// one every `interval`, starting at time zero.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    block: DataVolume,
    interval: SimDuration,
    blocks: u64,
}

impl SourceSpec {
    pub fn new(block: DataVolume, interval: SimDuration, blocks: u64) -> Self {
        SourceSpec { block, interval, blocks }
    }
}

impl From<SourceSpec> for StageKind {
    fn from(s: SourceSpec) -> StageKind {
        StageKind::Source {
            block: s.block,
            interval: s.interval,
            blocks: s.blocks,
            start: SimTime::ZERO,
        }
    }
}

/// Spec for a [`StageKind::Process`]: one CPU per task, unchunked,
/// pass-through output, no scratch space and no input retention unless the
/// builder methods say otherwise.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    rate_per_cpu: DataRate,
    pool: String,
    cpus_per_task: u32,
    chunk: Option<DataVolume>,
    output_ratio: f64,
    workspace_ratio: f64,
    retain_input: bool,
    checkpoint: CheckpointPolicy,
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

impl From<ProcessSpec> for StageKind {
    fn from(s: ProcessSpec) -> StageKind {
        StageKind::Process {
            rate_per_cpu: s.rate_per_cpu,
            cpus_per_task: s.cpus_per_task,
            chunk: s.chunk,
            output_ratio: s.output_ratio,
            pool: s.pool,
            workspace_ratio: s.workspace_ratio,
            retain_input: s.retain_input,
            checkpoint: s.checkpoint,
        }
    }
}

/// Spec for a [`StageKind::Transfer`]: zero latency and a single channel
/// unless the builder methods say otherwise.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    rate: DataRate,
    latency: SimDuration,
    channels: u32,
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

impl From<TransferSpec> for StageKind {
    fn from(s: TransferSpec) -> StageKind {
        StageKind::Transfer { rate: s.rate, latency: s.latency, channels: s.channels }
    }
}

/// Spec for a [`StageKind::Filter`]: inspects at `rate`, forwards
/// `accept_ratio` of the volume.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    rate: DataRate,
    accept_ratio: f64,
    checkpoint: CheckpointPolicy,
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

impl From<FilterSpec> for StageKind {
    fn from(s: FilterSpec) -> StageKind {
        StageKind::Filter { rate: s.rate, accept_ratio: s.accept_ratio, checkpoint: s.checkpoint }
    }
}

/// Spec for a [`StageKind::Batcher`]: buffers arriving blocks and emits one
/// merged block when `batch` blocks have gathered, or `linger` after the
/// first buffered block — whichever comes first.
#[derive(Debug, Clone)]
pub struct BatcherSpec {
    batch: u64,
    linger: SimDuration,
}

impl BatcherSpec {
    pub fn new(batch: u64, linger: SimDuration) -> Self {
        BatcherSpec { batch, linger }
    }
}

impl From<BatcherSpec> for StageKind {
    fn from(s: BatcherSpec) -> StageKind {
        StageKind::Batcher { batch: s.batch, linger: s.linger }
    }
}

/// Spec for a [`StageKind::Dedup`]: inspects at `rate` and forwards
/// `unique_ratio` of each block's volume once the index has warmed up (see
/// [`DedupSpec::window`]; blocks inspected before then pass in full).
#[derive(Debug, Clone)]
pub struct DedupSpec {
    rate: DataRate,
    unique_ratio: f64,
    window: u64,
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

impl From<DedupSpec> for StageKind {
    fn from(s: DedupSpec) -> StageKind {
        StageKind::Dedup { rate: s.rate, unique_ratio: s.unique_ratio, window: s.window }
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

    fn stage(
        mut self,
        name: impl Into<String>,
        kind: impl Into<StageKind>,
        upstream: &[&str],
    ) -> Self {
        self.stages.push((
            name.into(),
            kind.into(),
            upstream.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Declare a source stage (sources have no upstreams).
    pub fn source(self, name: impl Into<String>, spec: SourceSpec) -> Self {
        self.stage(name, spec, &[])
    }

    /// Declare a processing stage fed by the named upstream stages.
    pub fn process(self, name: impl Into<String>, spec: ProcessSpec, upstream: &[&str]) -> Self {
        self.stage(name, spec, upstream)
    }

    /// Declare a transfer stage fed by the named upstream stages.
    pub fn transfer(self, name: impl Into<String>, spec: TransferSpec, upstream: &[&str]) -> Self {
        self.stage(name, spec, upstream)
    }

    /// Declare a filter stage fed by the named upstream stages.
    pub fn filter(self, name: impl Into<String>, spec: FilterSpec, upstream: &[&str]) -> Self {
        self.stage(name, spec, upstream)
    }

    /// Declare a batcher stage fed by the named upstream stages.
    pub fn batcher(self, name: impl Into<String>, spec: BatcherSpec, upstream: &[&str]) -> Self {
        self.stage(name, spec, upstream)
    }

    /// Declare a dedup stage fed by the named upstream stages.
    pub fn dedup(self, name: impl Into<String>, spec: DedupSpec, upstream: &[&str]) -> Self {
        self.stage(name, spec, upstream)
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
        assert!(matches!(g.stage(bundle).kind, StageKind::Batcher { batch: 4, .. }));
        let collapse = g.find("collapse").unwrap();
        assert!(matches!(g.stage(collapse).kind, StageKind::Dedup { window: 2, .. }));
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
