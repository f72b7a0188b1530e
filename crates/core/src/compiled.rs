//! The compiled flow IR: what the simulator actually executes.
//!
//! A [`FlowGraph`] is the *authoring* form — stages
//! carry their names, `Process` stages reference their pool by `String`, and
//! adjacency is a `Vec<Vec<StageId>>` of heap-allocated edge lists. None of
//! that belongs on the simulator's hot path: every name survives only to be
//! cloned into reports and traces, and every pool string survives only to be
//! resolved once at build time.
//!
//! [`compile`] lowers a validated graph into a [`CompiledFlow`]:
//!
//! * every stage **name** is interned into a dense side table, indexed by
//!   [`StageId`] — execution never touches a `String`, and report/trace
//!   rendering resolves ids back to names at the very edge;
//! * every referenced **pool name** is interned into a second table; a
//!   `Process` stage's pool becomes a [`PoolIdx`] into it;
//! * the per-stage [`StageKind`] is lowered to a
//!   [`CompiledKind`] — a `Copy` mirror with ids in place of strings;
//! * adjacency is flattened into two id arrays with per-stage ranges
//!   (CSR form), so a stage's successors are one contiguous slice;
//! * the policy tables the orchestrator consults per event — verify policy,
//!   lineage durability, volume ratio, sink-ness — are precomputed dense
//!   arrays indexed by stage.
//!
//! Compiling is behavior-free: a [`CompiledFlow`] run by
//! [`FlowSim::from_compiled`](crate::sim::FlowSim::from_compiled) produces a
//! byte-identical [`SimReport`](crate::metrics::SimReport) to the same graph
//! handed to [`FlowSim::new`](crate::sim::FlowSim::new), which lowers
//! through this module itself.

use crate::error::CoreResult;
use crate::graph::{CheckpointPolicy, FlowGraph, StageId, StageKind, VerifyPolicy};
use crate::obs::SloRule;
use crate::trace::ObserveConfig;
use crate::units::{DataRate, DataVolume, SimDuration, SimTime};

/// Index of an interned pool name within its [`CompiledFlow`]'s pool table.
///
/// Distinct from [`crate::resource::ResourceId`]: a `PoolIdx` identifies a
/// *name* the flow references, before any capacity is supplied; the resource
/// layer assigns `ResourceId`s when the simulator registers actual pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolIdx(pub(crate) u32);

impl PoolIdx {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A [`StageKind`] lowered to ids: the one
/// difference is `Process`, whose pool is a [`PoolIdx`] instead of a
/// `String`. Everything is `Copy`, so the simulator's build loop reads
/// parameters without cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledKind {
    Source {
        block: DataVolume,
        interval: SimDuration,
        blocks: u64,
        start: SimTime,
    },
    Process {
        rate_per_cpu: DataRate,
        cpus_per_task: u32,
        chunk: Option<DataVolume>,
        output_ratio: f64,
        pool: PoolIdx,
        workspace_ratio: f64,
        retain_input: bool,
        checkpoint: CheckpointPolicy,
    },
    Transfer {
        rate: DataRate,
        latency: SimDuration,
        channels: u32,
    },
    Filter {
        rate: DataRate,
        accept_ratio: f64,
        checkpoint: CheckpointPolicy,
    },
    Batcher {
        batch: u64,
        linger: SimDuration,
    },
    Dedup {
        rate: DataRate,
        unique_ratio: f64,
        window: u64,
    },
    Archive,
}

/// A validated flow lowered for execution: dense id-indexed tables, flat
/// adjacency, and name side tables consulted only when rendering output.
/// Build one with [`compile`].
#[derive(Debug, Clone)]
pub struct CompiledFlow {
    /// Stage names, indexed by [`StageId`]. Render-edge only.
    names: Vec<String>,
    /// Referenced pool names (sorted, deduplicated), indexed by [`PoolIdx`].
    pools: Vec<String>,
    /// Lowered stage kinds, indexed by [`StageId`].
    kinds: Vec<CompiledKind>,
    /// Arrival integrity policy per stage, consulted on every `Arrive`.
    verify: Vec<VerifyPolicy>,
    /// Flat downstream adjacency; stage `i`'s successors are
    /// `succ[succ_ranges[i].0 .. succ_ranges[i].1]`.
    succ: Vec<StageId>,
    succ_ranges: Vec<(u32, u32)>,
    /// Flat upstream adjacency, same layout as `succ`.
    pred: Vec<StageId>,
    pred_ranges: Vec<(u32, u32)>,
    /// Can lineage reprocessing restart from this stage? (Sources and
    /// archives hold their data; process/filter stages only if they retain
    /// input or checkpoint.)
    durable: Vec<bool>,
    /// Output/input volume ratio, used to invert a stage's transformation
    /// when walking lineage upstream.
    ratio: Vec<f64>,
    /// Terminal stage (no downstream)? Taint arriving unchecked at a sink
    /// has escaped to consumers.
    sink: Vec<bool>,
    /// Total source blocks the flow will emit.
    pending_emits: u64,
    /// Telemetry configuration carried over from the graph.
    observe: Option<ObserveConfig>,
    /// Declarative SLO rules carried over from the graph.
    slos: Vec<SloRule>,
}

/// Lower a flow graph into its executable form. Validates the graph first,
/// so every error [`FlowGraph::validate`] can raise surfaces here with the
/// same message; interning itself cannot fail.
pub fn compile(graph: &FlowGraph) -> CoreResult<CompiledFlow> {
    graph.validate()?;
    let n = graph.len();
    // Pool table: the sorted, deduplicated referenced names — the same order
    // the simulator checks supplied pools against, so "unknown pool" errors
    // are reported identically from either form.
    let pools: Vec<String> = graph.referenced_pools().into_iter().map(String::from).collect();
    let pool_idx = |name: &str| {
        PoolIdx(pools.iter().position(|p| p == name).expect("referenced pool interned") as u32)
    };
    let mut names = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut verify = Vec::with_capacity(n);
    let mut durable = Vec::with_capacity(n);
    let mut ratio = Vec::with_capacity(n);
    let mut sink = Vec::with_capacity(n);
    let mut pending_emits = 0u64;
    for id in graph.stage_ids() {
        let stage = graph.stage(id);
        names.push(stage.name.clone());
        verify.push(stage.verify);
        let kind = match &stage.kind {
            StageKind::Source { block, interval, blocks, start } => {
                pending_emits += blocks;
                CompiledKind::Source {
                    block: *block,
                    interval: *interval,
                    blocks: *blocks,
                    start: *start,
                }
            }
            StageKind::Process {
                rate_per_cpu,
                cpus_per_task,
                chunk,
                output_ratio,
                pool,
                workspace_ratio,
                retain_input,
                checkpoint,
            } => CompiledKind::Process {
                rate_per_cpu: *rate_per_cpu,
                cpus_per_task: *cpus_per_task,
                chunk: *chunk,
                output_ratio: *output_ratio,
                pool: pool_idx(pool),
                workspace_ratio: *workspace_ratio,
                retain_input: *retain_input,
                checkpoint: *checkpoint,
            },
            StageKind::Transfer { rate, latency, channels } => {
                CompiledKind::Transfer { rate: *rate, latency: *latency, channels: *channels }
            }
            StageKind::Filter { rate, accept_ratio, checkpoint } => CompiledKind::Filter {
                rate: *rate,
                accept_ratio: *accept_ratio,
                checkpoint: *checkpoint,
            },
            StageKind::Batcher { batch, linger } => {
                CompiledKind::Batcher { batch: *batch, linger: *linger }
            }
            StageKind::Dedup { rate, unique_ratio, window } => {
                CompiledKind::Dedup { rate: *rate, unique_ratio: *unique_ratio, window: *window }
            }
            StageKind::Archive => CompiledKind::Archive,
        };
        // Lineage tables (mirrors of the policy the simulator used to derive
        // inline): where reprocessing can restart, how to invert each stage's
        // volume transformation, and which stages are sinks.
        let (d, r) = match &stage.kind {
            StageKind::Source { .. } | StageKind::Archive => (true, 1.0),
            StageKind::Process { retain_input, checkpoint, output_ratio, .. } => {
                (*retain_input || *checkpoint != CheckpointPolicy::None, *output_ratio)
            }
            StageKind::Filter { accept_ratio, checkpoint, .. } => {
                (*checkpoint != CheckpointPolicy::None, *accept_ratio)
            }
            StageKind::Transfer { .. } => (false, 1.0),
            StageKind::Batcher { .. } => (false, 1.0),
            StageKind::Dedup { unique_ratio, .. } => (false, *unique_ratio),
        };
        kinds.push(kind);
        durable.push(d);
        ratio.push(r);
        sink.push(graph.downstream(id).is_empty());
    }
    let (succ, succ_ranges) = flatten(n, |id| graph.downstream(id));
    let (pred, pred_ranges) = flatten(n, |id| graph.upstream(id));
    Ok(CompiledFlow {
        names,
        pools,
        kinds,
        verify,
        succ,
        succ_ranges,
        pred,
        pred_ranges,
        durable,
        ratio,
        sink,
        pending_emits,
        observe: graph.observe_config(),
        slos: graph.slo_rules().to_vec(),
    })
}

/// Pack per-stage edge lists into one flat array plus `(start, end)` ranges.
fn flatten<'g>(
    n: usize,
    edges: impl Fn(StageId) -> &'g [StageId],
) -> (Vec<StageId>, Vec<(u32, u32)>) {
    let mut flat = Vec::new();
    let mut ranges = Vec::with_capacity(n);
    for i in 0..n {
        let start = flat.len() as u32;
        flat.extend_from_slice(edges(StageId(i)));
        ranges.push((start, flat.len() as u32));
    }
    (flat, ranges)
}

impl CompiledFlow {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> {
        (0..self.names.len()).map(StageId)
    }

    /// The interned name of a stage (render-edge use only).
    pub fn name(&self, id: StageId) -> &str {
        &self.names[id.index()]
    }

    /// All stage names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The interned pool-name table (sorted, deduplicated).
    pub fn pool_names(&self) -> &[String] {
        &self.pools
    }

    /// Resolve an interned pool index back to its name.
    pub fn pool_name(&self, idx: PoolIdx) -> &str {
        &self.pools[idx.index()]
    }

    /// The lowered kind of a stage.
    pub fn kind(&self, id: StageId) -> &CompiledKind {
        &self.kinds[id.index()]
    }

    /// Arrival integrity policy of a stage.
    #[inline]
    pub fn verify(&self, id: StageId) -> VerifyPolicy {
        self.verify[id.index()]
    }

    /// Stages fed by `id`, as one contiguous slice.
    #[inline]
    pub fn downstream(&self, id: StageId) -> &[StageId] {
        let (a, b) = self.succ_ranges[id.index()];
        &self.succ[a as usize..b as usize]
    }

    /// Stages feeding `id`, as one contiguous slice.
    #[inline]
    pub fn upstream(&self, id: StageId) -> &[StageId] {
        let (a, b) = self.pred_ranges[id.index()];
        &self.pred[a as usize..b as usize]
    }

    /// Can lineage reprocessing restart from this stage?
    #[inline]
    pub fn durable(&self, id: StageId) -> bool {
        self.durable[id.index()]
    }

    /// Output/input volume ratio of the stage's transformation.
    #[inline]
    pub fn ratio(&self, id: StageId) -> f64 {
        self.ratio[id.index()]
    }

    /// Is this a terminal stage?
    #[inline]
    pub fn sink(&self, id: StageId) -> bool {
        self.sink[id.index()]
    }

    /// Total source blocks the flow will emit.
    pub fn pending_emits(&self) -> u64 {
        self.pending_emits
    }

    /// Telemetry configuration, if the graph enabled observation.
    pub fn observe_config(&self) -> Option<ObserveConfig> {
        self.observe
    }

    /// The declarative SLO rules carried from the graph (empty when none).
    pub fn slo_rules(&self) -> &[SloRule] {
        &self.slos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::spec::{FlowSpec, ProcessSpec, SourceSpec, TransferSpec};

    fn demo_graph() -> FlowGraph {
        FlowSpec::new()
            .source("acquire", SourceSpec::new(DataVolume::gb(1), SimDuration::from_hours(1), 3))
            .process(
                "reduce",
                ProcessSpec::new(DataRate::mb_per_sec(50.0), "zebra").output_ratio(0.5),
                &["acquire"],
            )
            .process(
                "search",
                ProcessSpec::new(DataRate::mb_per_sec(10.0), "alpha").retain_input(true),
                &["reduce"],
            )
            .transfer("link", TransferSpec::new(DataRate::mb_per_sec(100.0)), &["search"])
            .archive("store", &["link"])
            .feed("acquire", "store")
            .build()
            .unwrap()
    }

    #[test]
    fn interns_names_pools_and_adjacency() {
        let g = demo_graph();
        let c = compile(&g).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.names(), &["acquire", "reduce", "search", "link", "store"]);
        // Pool table is sorted and deduplicated, independent of use order.
        assert_eq!(c.pool_names(), &["alpha", "zebra"]);
        let reduce = StageId(1);
        match *c.kind(reduce) {
            CompiledKind::Process { pool, output_ratio, .. } => {
                assert_eq!(c.pool_name(pool), "zebra");
                assert_eq!(output_ratio, 0.5);
            }
            ref other => panic!("expected Process, got {other:?}"),
        }
        // CSR adjacency agrees with the graph, including the late feed edge.
        for id in g.stage_ids() {
            assert_eq!(c.downstream(id), g.downstream(id), "succ of {id:?}");
            assert_eq!(c.upstream(id), g.upstream(id), "pred of {id:?}");
        }
        assert_eq!(c.downstream(StageId(0)), &[StageId(1), StageId(4)]);
    }

    #[test]
    fn policy_tables_match_the_inline_derivation() {
        let g = demo_graph();
        let c = compile(&g).unwrap();
        // acquire: source (durable), reduce: plain process (not durable),
        // search: retains input (durable), link: transfer, store: archive.
        assert_eq!(
            (0..5).map(|i| c.durable(StageId(i))).collect::<Vec<_>>(),
            vec![true, false, true, false, true]
        );
        assert_eq!(c.ratio(StageId(1)), 0.5);
        assert_eq!(c.ratio(StageId(3)), 1.0);
        // Only the archive is terminal.
        assert_eq!(
            (0..5).map(|i| c.sink(StageId(i))).collect::<Vec<_>>(),
            vec![false, false, false, false, true]
        );
        assert_eq!(c.pending_emits(), 3);
        assert!(c.observe_config().is_none());
    }

    #[test]
    fn compiling_an_invalid_graph_reports_the_validation_error() {
        let mut g = FlowGraph::new();
        g.add_stage("dup", StageKind::Archive);
        g.add_stage("dup", StageKind::Archive);
        assert!(matches!(compile(&g), Err(CoreError::DuplicateStage { .. })));
    }
}
