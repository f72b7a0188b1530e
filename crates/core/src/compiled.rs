//! The compiled flow IR: what the simulator actually executes.
//!
//! A [`FlowGraph`] is the *authoring* form — stages carry their names and
//! adjacency is a `Vec<Vec<StageId>>` of heap-allocated edge lists. Neither
//! belongs on the simulator's hot path: every name survives only to be
//! cloned into reports and traces.
//!
//! [`compile`] lowers a validated graph into a [`CompiledFlow`]:
//!
//! * every stage **name** is interned into a dense side table, indexed by
//!   [`StageId`] — execution never touches a `String`, and report/trace
//!   rendering resolves ids back to names at the very edge;
//! * every stage's [`StageKind`] is kept as the graph declared it, spec and
//!   all. Kinds are read only when
//!   [`FlowSim::from_compiled`](crate::sim::FlowSim::from_compiled) builds
//!   each stage's behavior (resolving a `Process` stage's pool by name,
//!   once) and by the run's spec hash; the run loop never reads one;
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

/// A validated flow lowered for execution: dense id-indexed tables, flat
/// adjacency, and name side tables consulted only when rendering output.
/// Build one with [`compile`].
#[derive(Debug, Clone)]
pub struct CompiledFlow {
    /// Stage names, indexed by [`StageId`]. Render-edge only.
    names: Vec<String>,
    /// The graph's stage kinds, indexed by [`StageId`]. Read when the
    /// simulator builds its behaviors and by its spec hash, never per event.
    kinds: Vec<StageKind>,
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
        // Lineage tables: where reprocessing can restart, how to invert
        // each stage's volume transformation, and which stages are sinks.
        let (d, r) = match &stage.kind {
            StageKind::Source(s) => {
                pending_emits += s.blocks;
                (true, 1.0)
            }
            StageKind::Archive => (true, 1.0),
            StageKind::Process(p) => {
                (p.retain_input || p.checkpoint != CheckpointPolicy::None, p.output_ratio)
            }
            StageKind::Filter(f) => (f.checkpoint != CheckpointPolicy::None, f.accept_ratio),
            StageKind::Transfer(_) | StageKind::Batcher(_) => (false, 1.0),
            StageKind::Dedup(d) => (false, d.unique_ratio),
        };
        kinds.push(stage.kind.clone());
        durable.push(d);
        ratio.push(r);
        sink.push(graph.downstream(id).is_empty());
    }
    let (succ, succ_ranges) = flatten(n, |id| graph.downstream(id));
    let (pred, pred_ranges) = flatten(n, |id| graph.upstream(id));
    Ok(CompiledFlow {
        names,
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

    /// The kind of a stage, with its parameters.
    pub fn kind(&self, id: StageId) -> &StageKind {
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
    use crate::units::{DataRate, DataVolume, SimDuration};

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
    fn interns_names_and_flattens_adjacency() {
        let g = demo_graph();
        let c = compile(&g).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.names(), &["acquire", "reduce", "search", "link", "store"]);
        match c.kind(StageId(1)) {
            StageKind::Process(p) => {
                assert_eq!(p.pool, "zebra");
                assert_eq!(p.output_ratio, 0.5);
            }
            other => panic!("expected Process, got {other:?}"),
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
