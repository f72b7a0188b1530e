//! Workflow graphs: typed DAGs of data-flow stages.
//!
//! Figures 1 and 2 of the paper are exactly such graphs — acquisition,
//! transport, processing, archiving and dissemination stages joined by data
//! flows. [`FlowGraph`] is the declarative description; the discrete-event
//! simulator in [`crate::sim`] executes it.

use std::collections::{HashSet, VecDeque};

use crate::error::{CoreError, CoreResult};
use crate::obs::{SloKind, SloRule};
use crate::spec::{BatcherSpec, DedupSpec, FilterSpec, ProcessSpec, SourceSpec, TransferSpec};
use crate::trace::ObserveConfig;
use crate::units::{DataRate, SimDuration};

crate::wire_struct! {
    /// Index of a stage within its graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct StageId(pub(crate) usize);
}

impl StageId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a compute stage bounds the work lost when a node crash kills a task
/// mid-flight.
///
/// With [`CheckpointPolicy::None`] a killed task restarts from zero; with
/// [`CheckpointPolicy::Interval`] it resumes from the last completed
/// checkpoint, so at most `every + cost` of work is lost per crash. `cost` is
/// the overhead of writing one checkpoint, added to the task's runtime for
/// every full interval completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No checkpoints: a crashed task loses all of its progress.
    #[default]
    None,
    /// Checkpoint after every `every` of useful work, paying `cost` per
    /// checkpoint written.
    Interval { every: SimDuration, cost: SimDuration },
}

impl CheckpointPolicy {
    /// Checkpoint every `every` of work, with free checkpoint writes.
    pub fn interval(every: SimDuration) -> Self {
        CheckpointPolicy::Interval { every, cost: SimDuration::ZERO }
    }
}

/// How a stage checks arriving blocks for silent corruption.
///
/// The paper's CLEO pipeline stores MD5 digests over canonical provenance
/// strings "in the output stream of each file" precisely so bad data can be
/// caught after the fact. [`VerifyPolicy`] models that defence in the flow
/// simulator: checking costs compute time (`volume / rate` per checked
/// block), catches the taint left by
/// [`FaultKind::SilentCorrupt`](crate::fault::FaultKind) events, and
/// quarantines the block instead of letting it flow on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum VerifyPolicy {
    /// No integrity check: tainted blocks flow through undetected.
    #[default]
    None,
    /// Check every arriving block at `rate` (full digest recomputation);
    /// every tainted block is caught on arrival.
    Digest { rate: DataRate },
    /// Check a seeded `fraction` of arriving blocks at `rate`; only sampled
    /// tainted blocks are caught.
    Sample { fraction: f64, rate: DataRate },
}

impl VerifyPolicy {
    /// Digest-check every arriving block at `rate`.
    pub fn digest(rate: DataRate) -> Self {
        VerifyPolicy::Digest { rate }
    }

    /// Digest-check a seeded `fraction` of arriving blocks at `rate`.
    pub fn sample(fraction: f64, rate: DataRate) -> Self {
        VerifyPolicy::Sample { fraction, rate }
    }

    pub fn is_none(&self) -> bool {
        matches!(self, VerifyPolicy::None)
    }
}

/// What a stage does with the blocks that reach it. Each variant carries
/// its kind's parameters, declared once in [`crate::spec`].
#[derive(Debug, Clone)]
pub enum StageKind {
    Source(SourceSpec),
    Process(ProcessSpec),
    Transfer(TransferSpec),
    Filter(FilterSpec),
    Batcher(BatcherSpec),
    Dedup(DedupSpec),
    /// Terminal stage that accumulates everything it receives (tape archive,
    /// database load, dissemination store).
    Archive,
}

/// A named stage plus its behaviour.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub kind: StageKind,
    /// Integrity check applied to every block arriving at this stage
    /// (default: none).
    pub verify: VerifyPolicy,
}

/// A directed acyclic graph of stages. Build with [`FlowGraph::add_stage`] /
/// [`FlowGraph::connect`], check with [`FlowGraph::validate`].
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    stages: Vec<Stage>,
    /// Downstream adjacency: `succ[i]` lists stages fed by stage `i`.
    succ: Vec<Vec<StageId>>,
    /// Upstream adjacency, kept in sync with `succ`.
    pred: Vec<Vec<StageId>>,
    /// Time-series sampling configuration; `None` (the default) leaves the
    /// report exactly as an unobserved run would produce it.
    observe: Option<ObserveConfig>,
    /// Declarative SLO rules evaluated during the run (default: none).
    /// An empty list leaves `SimReport::alerts` as `None`, so rule-free
    /// flows report exactly as they did before the observability layer.
    slos: Vec<SloRule>,
}

impl FlowGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_stage(&mut self, name: impl Into<String>, kind: StageKind) -> StageId {
        let id = StageId(self.stages.len());
        self.stages.push(Stage { name: name.into(), kind, verify: VerifyPolicy::None });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Set the integrity-check policy of an existing stage.
    pub fn set_verify(&mut self, id: StageId, policy: VerifyPolicy) {
        self.stages[id.0].verify = policy;
    }

    /// Turn on report telemetry ([`crate::metrics::TimeSeries`] and engine
    /// counters), sampled per `config.tick` — the one place a run's
    /// observation is set. [`FlowGraph::validate`] refuses a zero tick.
    pub fn set_observe(&mut self, config: ObserveConfig) {
        self.observe = Some(config);
    }

    /// The telemetry configuration, if one was set.
    pub fn observe_config(&self) -> Option<ObserveConfig> {
        self.observe
    }

    /// Attach declarative SLO rules, evaluated deterministically against
    /// the run's own state — the one place a run's rules are set. Rules
    /// never perturb the simulation; they only add [`crate::obs::Alert`]
    /// records to the report. [`FlowGraph::validate`] refuses a
    /// queue-backlog rule on an undeclared stage and any replication-lag
    /// rule.
    pub fn set_slos(&mut self, rules: Vec<SloRule>) {
        self.slos = rules;
    }

    /// The attached SLO rules (empty when none were declared).
    pub fn slo_rules(&self) -> &[SloRule] {
        &self.slos
    }

    /// Route the output of `from` into `to`.
    pub fn connect(&mut self, from: StageId, to: StageId) -> CoreResult<()> {
        for id in [from, to] {
            if id.0 >= self.stages.len() {
                return Err(CoreError::UnknownStage { id });
            }
        }
        self.succ[from.0].push(to);
        self.pred[to.0].push(from);
        Ok(())
    }

    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0]
    }

    pub fn len(&self) -> usize {
        self.stages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> {
        (0..self.stages.len()).map(StageId)
    }

    pub fn downstream(&self, id: StageId) -> &[StageId] {
        &self.succ[id.0]
    }

    pub fn upstream(&self, id: StageId) -> &[StageId] {
        &self.pred[id.0]
    }

    pub fn find(&self, name: &str) -> Option<StageId> {
        self.stages.iter().position(|s| s.name == name).map(StageId)
    }

    /// Validate the graph: unique names, sources have no inputs, non-source
    /// stages have at least one input, sources in multi-stage graphs have at
    /// least one consumer, the graph is acyclic, and every stage's
    /// parameters are sane (ratios are fractions, channel/batch counts are
    /// non-zero, checkpoint intervals and verify policies are
    /// non-degenerate), and the run decorations fit the graph (a non-zero
    /// observation tick, SLO rules that watch declared stages and none
    /// meant for a replica fabric). Every refusal that depends on the graph
    /// alone is raised here, so a [`crate::spec::FlowSpec`] near-miss fails
    /// `build()` with a typed error instead of hanging or panicking deep
    /// inside the engine, and a graph that compiles can be simulated on the
    /// pools it names.
    pub fn validate(&self) -> CoreResult<()> {
        let mut seen = HashSet::with_capacity(self.stages.len());
        for a in &self.stages {
            if !seen.insert(a.name.as_str()) {
                return Err(CoreError::DuplicateStage { name: a.name.clone() });
            }
        }
        for id in self.stage_ids() {
            let stage = self.stage(id);
            let inputs = self.upstream(id).len();
            match stage.kind {
                StageKind::Source(_) if inputs > 0 => {
                    return Err(CoreError::InvalidTopology {
                        detail: format!("source `{}` has {} incoming edge(s)", stage.name, inputs),
                    });
                }
                StageKind::Source(_) => {}
                _ if inputs == 0 => {
                    return Err(CoreError::InvalidTopology {
                        detail: format!("non-source `{}` has no incoming edges", stage.name),
                    });
                }
                _ => {}
            }
            if let StageKind::Archive = stage.kind {
                if !self.downstream(id).is_empty() {
                    return Err(CoreError::InvalidTopology {
                        detail: format!("archive `{}` has outgoing edges", stage.name),
                    });
                }
            }
            validate_stage_params(stage)?;
            validate_verify(&stage.name, &stage.kind, &stage.verify)?;
        }
        // Second pass, after every stage-local defect had its chance to
        // surface with a more specific error: a source no one consumes emits
        // into the void. A graph that is nothing but one source is still
        // legal — a pure generator with nowhere for data to go by
        // construction.
        for id in self.stage_ids() {
            let stage = self.stage(id);
            if matches!(stage.kind, StageKind::Source(_))
                && self.downstream(id).is_empty()
                && self.stages.len() > 1
            {
                return Err(CoreError::OrphanStage { stage: stage.name.clone() });
            }
        }
        self.topo_order()?;
        validate_decorations(self.observe, &self.slos, &seen)
    }

    /// Kahn's algorithm; error names a stage on a cycle if one exists.
    pub fn topo_order(&self) -> CoreResult<Vec<StageId>> {
        let mut in_deg: Vec<usize> = self.pred.iter().map(|p| p.len()).collect();
        let mut queue: VecDeque<StageId> =
            self.stage_ids().filter(|id| in_deg[id.0] == 0).collect();
        let mut order = Vec::with_capacity(self.stages.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &next in &self.succ[id.0] {
                in_deg[next.0] -= 1;
                if in_deg[next.0] == 0 {
                    queue.push_back(next);
                }
            }
        }
        if order.len() != self.stages.len() {
            let stuck = self
                .stage_ids()
                .find(|id| in_deg[id.0] > 0)
                .expect("some stage must have positive in-degree on a cycle");
            return Err(CoreError::CycleDetected { stage: self.stage(stuck).name.clone() });
        }
        Ok(order)
    }

    /// Names of the resource pools referenced by `Process` stages.
    pub fn referenced_pools(&self) -> Vec<&str> {
        let mut pools: Vec<&str> = self
            .stages
            .iter()
            .filter_map(|s| match &s.kind {
                StageKind::Process(p) => Some(p.pool.as_str()),
                _ => None,
            })
            .collect();
        pools.sort_unstable();
        pools.dedup();
        pools
    }
}

/// Per-kind parameter validation. Every check here guards a failure mode
/// that used to surface only at simulation time (or worse, as a hang or a
/// panic inside [`DataVolume::scale`](crate::units::DataVolume::scale)): zero transfer channels stall
/// forever, a negative output ratio panics mid-run, a zero batch can never
/// fill.
fn validate_stage_params(stage: &Stage) -> CoreResult<()> {
    let name = &stage.name;
    let ratio_in_unit = |what: &str, r: f64| {
        if !(0.0..=1.0).contains(&r) {
            return Err(CoreError::InvalidConfig {
                detail: format!("stage `{name}` {what} {r} is outside [0, 1]"),
            });
        }
        Ok(())
    };
    match &stage.kind {
        StageKind::Source(_) | StageKind::Archive => {}
        StageKind::Process(p) => {
            for (what, r) in
                [("output_ratio", p.output_ratio), ("workspace_ratio", p.workspace_ratio)]
            {
                if !r.is_finite() || r < 0.0 {
                    return Err(CoreError::InvalidConfig {
                        detail: format!("stage `{name}` {what} {r} must be finite and >= 0"),
                    });
                }
            }
            validate_checkpoint(name, &p.checkpoint)?;
        }
        StageKind::Transfer(t) => {
            if t.channels == 0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("stage `{name}` has zero transfer channels"),
                });
            }
        }
        StageKind::Filter(f) => {
            ratio_in_unit("accept_ratio", f.accept_ratio)?;
            validate_checkpoint(name, &f.checkpoint)?;
        }
        StageKind::Batcher(b) => {
            if b.batch == 0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("stage `{name}` has a zero batch size; it could never fill"),
                });
            }
        }
        StageKind::Dedup(d) => {
            ratio_in_unit("unique_ratio", d.unique_ratio)?;
        }
    }
    Ok(())
}

/// Reject degenerate verification parameters at build time: a zero digest
/// rate would make every check instantaneous-or-undefined, a sampling
/// fraction outside [0, 1] is meaningless, and a policy on a source can
/// never run (sources receive no arrivals).
fn validate_verify(stage: &str, kind: &StageKind, policy: &VerifyPolicy) -> CoreResult<()> {
    if matches!(kind, StageKind::Source(_)) && !policy.is_none() {
        return Err(CoreError::InvalidConfig {
            detail: format!("stage `{stage}` is a source; a verify policy there can never run"),
        });
    }
    match policy {
        VerifyPolicy::None => {}
        VerifyPolicy::Digest { rate } => {
            if rate.bytes_per_sec() <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("stage `{stage}` has a zero digest-verification rate"),
                });
            }
        }
        VerifyPolicy::Sample { fraction, rate } => {
            if !(0.0..=1.0).contains(fraction) {
                return Err(CoreError::InvalidConfig {
                    detail: format!(
                        "stage `{stage}` sampling fraction {fraction} is outside [0, 1]"
                    ),
                });
            }
            if rate.bytes_per_sec() <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("stage `{stage}` has a zero digest-verification rate"),
                });
            }
        }
    }
    Ok(())
}

/// Reject run decorations the graph cannot honor: a zero observation tick
/// would sample the same instant forever, a queue-backlog rule must watch a
/// declared stage, and replication-lag rules belong on a replica
/// `SyncFabric`, not a flow.
fn validate_decorations(
    observe: Option<ObserveConfig>,
    slos: &[SloRule],
    stages: &HashSet<&str>,
) -> CoreResult<()> {
    if observe.is_some_and(|cfg| cfg.tick.is_zero()) {
        return Err(CoreError::InvalidConfig {
            detail: "observation tick must be non-zero".to_string(),
        });
    }
    for rule in slos {
        let detail = match &rule.kind {
            SloKind::QueueBacklog { stage, .. } if !stages.contains(stage.as_str()) => {
                format!("SLO rule `{}` watches unknown stage `{stage}`", rule.name)
            }
            SloKind::ReplicationLag { .. } => format!(
                "SLO rule `{}`: replication-lag rules attach to a replica SyncFabric, not a flow",
                rule.name
            ),
            _ => continue,
        };
        return Err(CoreError::InvalidConfig { detail });
    }
    Ok(())
}

/// A zero-length checkpoint interval would mean "checkpoint continuously";
/// nothing would ever be lost and the salvage arithmetic degenerates. Reject
/// it at build time like the other degenerate stage parameters.
fn validate_checkpoint(stage: &str, policy: &CheckpointPolicy) -> CoreResult<()> {
    if let CheckpointPolicy::Interval { every, .. } = policy {
        if every.is_zero() {
            return Err(CoreError::InvalidConfig {
                detail: format!("stage `{stage}` has a zero checkpoint interval"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::DataVolume;

    fn source() -> StageKind {
        StageKind::Source(SourceSpec::new(DataVolume::gib(1), SimDuration::from_hours(1), 4))
    }

    fn process(pool: &str) -> StageKind {
        StageKind::Process(ProcessSpec::new(DataRate::mb_per_sec(10.0), pool).output_ratio(0.5))
    }

    #[test]
    fn linear_graph_validates() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("acquire", source());
        let p = g.add_stage("process", process("ctc"));
        let a = g.add_stage("archive", StageKind::Archive);
        g.connect(s, p).unwrap();
        g.connect(p, a).unwrap();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![s, p, a]);
        assert_eq!(g.referenced_pools(), vec!["ctc"]);
        assert_eq!(g.find("process"), Some(p));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn verify_policy_defaults_to_none_and_is_settable() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("acquire", source());
        assert!(g.stage(s).verify.is_none());
        g.set_verify(s, VerifyPolicy::digest(DataRate::mb_per_sec(200.0)));
        assert_eq!(g.stage(s).verify, VerifyPolicy::Digest { rate: DataRate::mb_per_sec(200.0) });
    }

    #[test]
    fn cycle_is_rejected() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("acquire", source());
        let p1 = g.add_stage("p1", process("x"));
        let p2 = g.add_stage("p2", process("x"));
        g.connect(s, p1).unwrap();
        g.connect(p1, p2).unwrap();
        g.connect(p2, p1).unwrap();
        match g.validate() {
            Err(CoreError::CycleDetected { stage }) => assert!(stage == "p1" || stage == "p2"),
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn source_with_input_is_rejected() {
        let mut g = FlowGraph::new();
        let s1 = g.add_stage("s1", source());
        let s2 = g.add_stage("s2", source());
        g.connect(s1, s2).unwrap();
        assert!(matches!(g.validate(), Err(CoreError::InvalidTopology { .. })));
    }

    #[test]
    fn orphan_process_is_rejected() {
        let mut g = FlowGraph::new();
        let _s = g.add_stage("s", source());
        let _p = g.add_stage("p", process("x"));
        assert!(matches!(g.validate(), Err(CoreError::InvalidTopology { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = FlowGraph::new();
        g.add_stage("x", source());
        g.add_stage("x", source());
        assert!(matches!(g.validate(), Err(CoreError::DuplicateStage { .. })));
    }

    #[test]
    fn connect_unknown_stage_errors() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        assert!(g.connect(s, StageId(99)).is_err());
    }

    #[test]
    fn archive_with_outgoing_rejected() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        let a = g.add_stage("a", StageKind::Archive);
        let p = g.add_stage("p", process("x"));
        g.connect(s, a).unwrap();
        g.connect(a, p).unwrap();
        assert!(matches!(g.validate(), Err(CoreError::InvalidTopology { .. })));
    }

    #[test]
    fn orphan_source_is_rejected_with_a_typed_error() {
        let mut g = FlowGraph::new();
        let s1 = g.add_stage("s1", source());
        let a = g.add_stage("a", StageKind::Archive);
        let _s2 = g.add_stage("s2", source());
        g.connect(s1, a).unwrap();
        match g.validate() {
            Err(CoreError::OrphanStage { stage }) => assert_eq!(stage, "s2"),
            other => panic!("expected OrphanStage, got {other:?}"),
        }
    }

    #[test]
    fn lone_source_graph_is_legal() {
        let mut g = FlowGraph::new();
        g.add_stage("s", source());
        g.validate().unwrap();
    }

    #[test]
    fn degenerate_stage_parameters_are_rejected_at_build_time() {
        // Negative output ratio used to panic inside DataVolume::scale at
        // the first task completion; now it is a typed build-time error.
        let bad = StageKind::Process(
            ProcessSpec::new(DataRate::mb_per_sec(10.0), "x").output_ratio(-0.5),
        );
        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        let p = g.add_stage("p", bad);
        g.connect(s, p).unwrap();
        assert!(matches!(g.validate(), Err(CoreError::InvalidConfig { .. })));

        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        let b =
            g.add_stage("b", StageKind::Batcher(BatcherSpec::new(0, SimDuration::from_secs(60))));
        g.connect(s, b).unwrap();
        assert!(matches!(g.validate(), Err(CoreError::InvalidConfig { .. })));

        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        let d = g.add_stage(
            "d",
            StageKind::Dedup(DedupSpec::new(DataRate::mb_per_sec(100.0), 1.5).window(2)),
        );
        g.connect(s, d).unwrap();
        assert!(matches!(g.validate(), Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn decorations_the_graph_cannot_honor_are_rejected_by_validate_and_compile() {
        let mut honored = FlowGraph::new();
        let s = honored.add_stage("s", source());
        let a = honored.add_stage("a", StageKind::Archive);
        honored.connect(s, a).unwrap();
        honored.set_observe(ObserveConfig::every(SimDuration::from_secs(1)));
        honored.set_slos(vec![SloRule::queue_backlog("b", "a", DataVolume::gb(1))]);
        honored.validate().unwrap();

        let mut zero_tick = honored.clone();
        zero_tick.set_observe(ObserveConfig::every(SimDuration::ZERO));
        let mut unknown_stage = honored.clone();
        unknown_stage.set_slos(vec![SloRule::queue_backlog("b", "nope", DataVolume::gb(1))]);
        let mut lag_rule = honored.clone();
        lag_rule.set_slos(vec![SloRule::replication_lag("lag", 4)]);
        for g in [zero_tick, unknown_stage, lag_rule] {
            assert!(matches!(g.validate(), Err(CoreError::InvalidConfig { .. })), "{g:?}");
            let compiled = crate::compiled::compile(&g).map(|_| ());
            assert!(matches!(compiled, Err(CoreError::InvalidConfig { .. })), "{g:?}");
        }
    }

    #[test]
    fn batcher_and_dedup_validate_in_a_pipeline() {
        let mut g = FlowGraph::new();
        let s = g.add_stage("s", source());
        let b =
            g.add_stage("b", StageKind::Batcher(BatcherSpec::new(3, SimDuration::from_mins(10))));
        let d = g.add_stage(
            "d",
            StageKind::Dedup(DedupSpec::new(DataRate::mb_per_sec(100.0), 0.4).window(1)),
        );
        let a = g.add_stage("a", StageKind::Archive);
        g.connect(s, b).unwrap();
        g.connect(b, d).unwrap();
        g.connect(d, a).unwrap();
        g.validate().unwrap();
    }
}
