//! The workload zoo: a seeded, deterministic random flow-graph generator.
//!
//! The paper argues its three case studies span a space of data-flow
//! *shapes* — tiered distribution (CLEO), reduction chains (Arecibo),
//! crawl/ingest (WebLab) — but hand-built graphs only ever test three
//! points of that space. [`generate`] samples it: given an [`Archetype`]
//! and a `u64` seed it deterministically produces a layered DAG of
//! sources, processing, transfers, filters, batchers, dedup stages and
//! archives, plus the CPU pools it needs and fault profiles sized to its
//! horizon. The property suites run the flow invariants (conservation,
//! integrity audit, crash-recovery bounds, trace conservation,
//! byte-identical replay) over hundreds of generated graphs per seed.
//!
//! ## Reproducibility
//!
//! A generated graph is fully identified by its `(archetype, seed)` pair:
//! `generate(archetype, seed)` is a pure function of both. Failing property
//! tests print exactly that pair; paste it back into [`generate`] to get
//! the failing graph on any machine.
//!
//! ## Shrinking
//!
//! The high byte of the seed encodes a *shrink level* (0–3): the same
//! low 56 bits at a higher level generate a smaller graph from the same
//! draw stream (ranges are scaled down by `2^level`). The test runner
//! re-tries a failing seed at higher levels and reports the smallest
//! still-failing pair — so even a shrunk counterexample is reproducible
//! from a plain `(archetype, seed)` tuple, with no side-channel state.

use std::fmt;

use crate::fault::FaultProfile;
use crate::graph::{CheckpointPolicy, FlowGraph, StageId, StageKind, VerifyPolicy};
use crate::md5::md5_strings;
use crate::rng::Rng;
use crate::sim::CpuPool;
use crate::spec::{BatcherSpec, DedupSpec, FilterSpec, ProcessSpec, SourceSpec, TransferSpec};
use crate::units::{DataRate, DataVolume, SimDuration};

/// Named graph families, each biasing the generator toward one of the
/// large-scale data-flow shapes the literature describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// LHC/CLEO-style tiered distribution: one detector source fanning out
    /// through transfer tiers to several regional archives.
    TieredDistribution,
    /// LOFAR/Arecibo-style reduction chain: a deep, narrow pipeline where
    /// each processing tier shrinks the volume.
    ReductionChain,
    /// CDN fan-out: wide transfer tiers with batcher cache stages ahead of
    /// many edge archives.
    CdnFanout,
    /// Streaming crawl ingest: several bursty sources, aggressive batching
    /// and dedup, backpressure-prone widths.
    StreamingIngest,
    /// A long strictly serial pipeline — the worst case for latency and for
    /// crash-recovery bounds.
    DeepPipeline,
    /// One source scattered across many shallow parallel workers.
    WideScatter,
}

impl Archetype {
    /// Every archetype, in a stable order (property suites iterate this).
    pub const ALL: [Archetype; 6] = [
        Archetype::TieredDistribution,
        Archetype::ReductionChain,
        Archetype::CdnFanout,
        Archetype::StreamingIngest,
        Archetype::DeepPipeline,
        Archetype::WideScatter,
    ];

    /// Stable machine-readable name, accepted back by
    /// [`Archetype::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            Archetype::TieredDistribution => "tiered-distribution",
            Archetype::ReductionChain => "reduction-chain",
            Archetype::CdnFanout => "cdn-fanout",
            Archetype::StreamingIngest => "streaming-ingest",
            Archetype::DeepPipeline => "deep-pipeline",
            Archetype::WideScatter => "wide-scatter",
        }
    }

    /// Inverse of [`Archetype::name`].
    pub fn from_name(name: &str) -> Option<Archetype> {
        Archetype::ALL.iter().copied().find(|a| a.name() == name)
    }

    fn params(self) -> GenParams {
        // Weights order: [process, transfer, filter, batcher, dedup].
        match self {
            Archetype::TieredDistribution => GenParams {
                sources: (1, 1),
                tiers: (3, 4),
                width: (2, 3),
                sinks: (2, 3),
                fan_in: (1, 2),
                blocks: (2, 4),
                block_mib: (512, 2048),
                interval_mins: (20, 60),
                weights: [4, 5, 1, 1, 0],
                out_ratio: (0.5, 1.0),
                checkpoint_prob: 0.25,
                verify_prob: 0.3,
            },
            Archetype::ReductionChain => GenParams {
                sources: (1, 1),
                tiers: (4, 6),
                width: (1, 2),
                sinks: (1, 1),
                fan_in: (1, 2),
                blocks: (2, 4),
                block_mib: (1024, 4096),
                interval_mins: (30, 60),
                weights: [6, 2, 3, 0, 1],
                out_ratio: (0.1, 0.5),
                checkpoint_prob: 0.35,
                verify_prob: 0.3,
            },
            Archetype::CdnFanout => GenParams {
                sources: (1, 2),
                tiers: (2, 3),
                width: (3, 4),
                sinks: (2, 3),
                fan_in: (1, 2),
                blocks: (2, 4),
                block_mib: (256, 1024),
                interval_mins: (10, 30),
                weights: [2, 5, 1, 3, 1],
                out_ratio: (0.6, 1.0),
                checkpoint_prob: 0.15,
                verify_prob: 0.25,
            },
            Archetype::StreamingIngest => GenParams {
                sources: (2, 3),
                tiers: (2, 4),
                width: (2, 3),
                sinks: (1, 2),
                fan_in: (1, 3),
                blocks: (3, 6),
                block_mib: (128, 512),
                interval_mins: (5, 15),
                weights: [2, 2, 3, 4, 5],
                out_ratio: (0.4, 0.9),
                checkpoint_prob: 0.2,
                verify_prob: 0.3,
            },
            Archetype::DeepPipeline => GenParams {
                sources: (1, 1),
                tiers: (6, 8),
                width: (1, 1),
                sinks: (1, 1),
                fan_in: (1, 1),
                blocks: (2, 3),
                block_mib: (512, 2048),
                interval_mins: (30, 60),
                weights: [4, 3, 2, 2, 2],
                out_ratio: (0.5, 1.0),
                checkpoint_prob: 0.3,
                verify_prob: 0.35,
            },
            Archetype::WideScatter => GenParams {
                sources: (1, 1),
                tiers: (1, 1),
                width: (4, 6),
                sinks: (1, 2),
                fan_in: (1, 1),
                blocks: (3, 5),
                block_mib: (256, 1024),
                interval_mins: (10, 30),
                weights: [6, 2, 2, 1, 1],
                out_ratio: (0.3, 0.8),
                checkpoint_prob: 0.2,
                verify_prob: 0.25,
            },
        }
    }
}

impl fmt::Display for Archetype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bits of a seed below the shrink-level byte.
pub const SEED_PAYLOAD_MASK: u64 = (1 << LEVEL_SHIFT) - 1;
/// Deepest shrink level [`generate`] distinguishes.
pub const MAX_SHRINK_LEVEL: u32 = 3;
const LEVEL_SHIFT: u32 = 56;

/// The shrink level a seed encodes in its high byte, saturated to
/// [`MAX_SHRINK_LEVEL`].
pub fn shrink_level(seed: u64) -> u32 {
    ((seed >> LEVEL_SHIFT) as u32).min(MAX_SHRINK_LEVEL)
}

/// The same graph family as `seed` but generated at `level`: identical low
/// bits (same draw stream), scaled-down size ranges.
pub fn with_shrink_level(seed: u64, level: u32) -> u64 {
    (seed & SEED_PAYLOAD_MASK) | ((level.min(MAX_SHRINK_LEVEL) as u64) << LEVEL_SHIFT)
}

/// Size and mix parameters the generator draws from; each archetype is one
/// assignment of these ranges.
struct GenParams {
    sources: (usize, usize),
    /// Middle tiers between the source layer and the archive sinks.
    tiers: (usize, usize),
    /// Stages per middle tier.
    width: (usize, usize),
    sinks: (usize, usize),
    /// Upstream edges per middle-tier stage (clamped to the previous layer).
    fan_in: (usize, usize),
    /// Blocks per source.
    blocks: (u64, u64),
    block_mib: (u64, u64),
    interval_mins: (u64, u64),
    /// Kind weights for middle stages: process, transfer, filter, batcher,
    /// dedup.
    weights: [u32; 5],
    /// Process `output_ratio` range.
    out_ratio: (f64, f64),
    checkpoint_prob: f64,
    verify_prob: f64,
}

impl GenParams {
    /// Scale every size range down by `2^level`, keeping minima of 1 — the
    /// shrink ladder the failing-seed minimizer walks.
    fn shrunk(mut self, level: u32) -> Self {
        let d = 1u64 << level;
        let du = d as usize;
        let us = |r: (usize, usize)| ((r.0 / du).max(1), (r.1 / du).max(1));
        let u64s = |r: (u64, u64)| ((r.0 / d).max(1), (r.1 / d).max(1));
        self.sources = us(self.sources);
        self.tiers = us(self.tiers);
        self.width = us(self.width);
        self.sinks = us(self.sinks);
        self.blocks = u64s(self.blocks);
        self
    }
}

/// A generated workload: the graph plus everything needed to run it.
#[derive(Debug, Clone)]
pub struct GenFlow {
    pub archetype: Archetype,
    pub seed: u64,
    /// The validated graph, including seeded checkpoint and verify
    /// decoration.
    pub graph: FlowGraph,
    /// CPU pools the graph's process stages draw from (supplied whether or
    /// not a process stage was generated; unused pools are harmless).
    pub pools: Vec<CpuPool>,
    /// The pool crash-fault runs should target: the first pool an actual
    /// process stage references, if any.
    pub crash_pool: Option<String>,
    /// Names of stages decorated with an interval checkpoint policy.
    pub checkpointed: Vec<String>,
    /// Horizon fault timelines should cover (generously past the source
    /// emission span).
    pub horizon: SimDuration,
}

impl GenFlow {
    /// A copy of the graph with digest verification on every non-source
    /// stage — under it, no taint can escape (the integrity-audit property
    /// checks exactly that).
    pub fn digest_everywhere(&self) -> FlowGraph {
        let mut g = self.graph.clone();
        let rate = DataRate::mb_per_sec(400.0);
        for id in g.stage_ids() {
            if !matches!(g.stage(id).kind, StageKind::Source(_)) {
                g.set_verify(id, VerifyPolicy::digest(rate));
            }
        }
        g
    }

    /// Link faults plus silent corruption, dense enough that a multi-hour
    /// generated flow sees tens of events. Corruption only taints a block
    /// while it is on the wire, so the draw rate (one per two simulated
    /// minutes) is sized to graphs whose total transfer time may be minutes.
    pub fn corrupt_profile(&self) -> FaultProfile {
        FaultProfile::flaky().with_silent_corruption(720.0)
    }

    /// Node crashes against [`GenFlow::crash_pool`], or `None` when no
    /// process stage was generated (nothing to crash). Dense — a crash draw
    /// every quarter hour taking two CPUs — so that across a batch of
    /// generated graphs the timeline reliably kills running tasks.
    pub fn crash_profile(&self) -> Option<FaultProfile> {
        self.crash_pool
            .as_ref()
            .map(|p| FaultProfile::node_crashes(p.clone(), 96.0, 2, SimDuration::from_mins(10)))
    }
}

/// Deterministically generate the `(archetype, seed)` workload. Pure: the
/// same pair yields the same [`GenFlow`] on every platform, and the result
/// always validates.
pub fn generate(archetype: Archetype, seed: u64) -> GenFlow {
    let level = shrink_level(seed);
    let p = archetype.params().shrunk(level);
    let mut rng = rng_for(archetype, seed);

    let n_sources = rng.gen_range(p.sources.0..=p.sources.1);
    let n_tiers = rng.gen_range(p.tiers.0..=p.tiers.1);
    let n_sinks = rng.gen_range(p.sinks.0..=p.sinks.1);
    let n_pools = rng.gen_range(1..=2usize);
    let pools: Vec<CpuPool> =
        (0..n_pools).map(|i| CpuPool::new(format!("pool{i}"), rng.gen_range(4..=12u32))).collect();

    let mut g = FlowGraph::new();
    let mut sources = Vec::with_capacity(n_sources);
    let mut span = SimDuration::ZERO;
    for i in 0..n_sources {
        let block = DataVolume::mib(rng.gen_range(p.block_mib.0..=p.block_mib.1));
        let interval = SimDuration::from_mins(rng.gen_range(p.interval_mins.0..=p.interval_mins.1));
        let blocks = rng.gen_range(p.blocks.0..=p.blocks.1);
        span = span.max(interval * blocks);
        let id = g.add_stage(
            format!("src{i}"),
            StageKind::Source(SourceSpec { block, interval, blocks }),
        );
        sources.push(id);
    }

    let mut prev: Vec<StageId> = sources.clone();
    let mut first_layer: Vec<StageId> = Vec::new();
    let mut middles: Vec<StageId> = Vec::new();
    for t in 0..n_tiers {
        let w = rng.gen_range(p.width.0..=p.width.1);
        let mut layer = Vec::with_capacity(w);
        for s in 0..w {
            let (tag, kind) = middle_kind(&mut rng, &p, &pools);
            let id = g.add_stage(format!("t{t}-{tag}{s}"), kind);
            let fan = rng.gen_range(p.fan_in.0..=p.fan_in.1).clamp(1, prev.len());
            for u in pick_distinct(&mut rng, &prev, fan) {
                g.connect(u, id).expect("generated stage ids are in range");
            }
            layer.push(id);
        }
        if t == 0 {
            first_layer = layer.clone();
        }
        middles.extend_from_slice(&layer);
        prev = layer;
    }

    let mut sinks = Vec::with_capacity(n_sinks);
    for i in 0..n_sinks {
        let id = g.add_stage(format!("sink{i}"), StageKind::Archive);
        let fan = rng.gen_range(1..=2usize).clamp(1, prev.len());
        for u in pick_distinct(&mut rng, &prev, fan) {
            g.connect(u, id).expect("generated stage ids are in range");
        }
        sinks.push(id);
    }

    // The generator must always emit a *valid* graph: a source the fan-in
    // draws happened to skip gets wired to a random first-tier consumer
    // (near-miss specs are the validator's test, built separately).
    for &s in &sources {
        if g.downstream(s).is_empty() && !first_layer.is_empty() {
            let t = first_layer[rng.gen_range(0..first_layer.len())];
            g.connect(s, t).expect("generated stage ids are in range");
        }
    }

    // Every middle stage drains into the archive layer if nothing else
    // consumed it: real flows land everything somewhere durable, and it
    // keeps archives the only terminal stages (data a terminal transfer
    // emits leaves the model unverifiable — nothing downstream can ever
    // check it).
    for &m in &middles {
        if g.downstream(m).is_empty() {
            let t = sinks[rng.gen_range(0..sinks.len())];
            g.connect(m, t).expect("generated stage ids are in range");
        }
    }

    // Seeded verify decoration on non-source stages.
    for id in g.stage_ids() {
        if matches!(g.stage(id).kind, StageKind::Source(_)) {
            continue;
        }
        if rng.gen_bool(p.verify_prob) {
            let rate = DataRate::mb_per_sec(rng.gen_range(200.0..500.0));
            let policy = if rng.gen_bool(0.3) {
                VerifyPolicy::sample(rng.gen_range(0.2..0.8), rate)
            } else {
                VerifyPolicy::digest(rate)
            };
            g.set_verify(id, policy);
        }
    }

    g.validate().expect("generated graphs are valid by construction");

    let checkpointed = g
        .stage_ids()
        .filter_map(|id| {
            let stage = g.stage(id);
            match stage.kind {
                StageKind::Process(ProcessSpec {
                    checkpoint: CheckpointPolicy::Interval { .. },
                    ..
                })
                | StageKind::Filter(FilterSpec {
                    checkpoint: CheckpointPolicy::Interval { .. },
                    ..
                }) => Some(stage.name.clone()),
                _ => None,
            }
        })
        .collect();
    let crash_pool = g.referenced_pools().first().map(|s| s.to_string());
    // Comfortably past the emission span plus the processing tail, but not
    // so far that a uniform fault timeline mostly fires after quiescence.
    let horizon = span * 2 + SimDuration::from_hours(6);

    GenFlow { archetype, seed, graph: g, pools, crash_pool, checkpointed, horizon }
}

/// Size parameters for [`stress_flow`]: a deterministic chain-parallel
/// stress graph for the perf suite (no randomness — the graph is fully
/// specified by these numbers).
#[derive(Debug, Clone, Copy)]
pub struct StressParams {
    /// Independent serial chains fanning out from the single source.
    pub chains: usize,
    /// Stages per chain.
    pub depth: usize,
    /// Blocks the source emits.
    pub blocks: u64,
}

impl Default for StressParams {
    /// The committed BENCH suite point: ~1000 stages, one million
    /// block-hops (`blocks * chains * depth`), a few million engine events.
    fn default() -> Self {
        StressParams { chains: 8, depth: 125, blocks: 1000 }
    }
}

impl StressParams {
    /// Total stage count of the generated graph (source + chains + sink).
    pub fn stages(&self) -> usize {
        1 + self.chains * self.depth + 1
    }
}

/// Build the synthetic stress workload for the standard perf suite: one
/// fast source fanning out to `chains` independent serial chains of `depth`
/// stages each (cycling process / transfer / filter / dedup kinds), all
/// draining into a single archive. Unlike [`generate`] this takes no seed:
/// the graph is a fixed function of [`StressParams`], so benchmark numbers
/// are comparable across machines and commits.
pub fn stress_flow(p: &StressParams) -> (FlowGraph, Vec<CpuPool>) {
    let pool_name = "stress-pool";
    // Plenty of CPUs: the stress flow measures engine throughput, not
    // contention, so process stages should never starve.
    let pools = vec![CpuPool::new(pool_name, (p.chains * 4).max(4) as u32)];

    let mut g = FlowGraph::new();
    let src = g.add_stage(
        "src",
        StageKind::Source(SourceSpec::new(
            DataVolume::mib(64),
            SimDuration::from_secs(30),
            p.blocks,
        )),
    );
    let sink = g.add_stage("sink", StageKind::Archive);
    for c in 0..p.chains {
        let mut prev = src;
        for d in 0..p.depth {
            // Deterministic kind cycle; rates are fast so simulated task
            // durations stay short and the event count dominates runtime.
            let (tag, kind) = match d % 4 {
                0 => (
                    "proc",
                    StageKind::Process(ProcessSpec::new(DataRate::mb_per_sec(800.0), pool_name)),
                ),
                1 => (
                    "link",
                    StageKind::Transfer(
                        TransferSpec::new(DataRate::mb_per_sec(1200.0))
                            .latency(SimDuration::from_secs(1))
                            .channels(4),
                    ),
                ),
                2 => {
                    ("trig", StageKind::Filter(FilterSpec::new(DataRate::mb_per_sec(1500.0), 0.97)))
                }
                _ => (
                    "dedup",
                    StageKind::Dedup(DedupSpec::new(DataRate::mb_per_sec(1500.0), 0.95).window(2)),
                ),
            };
            let id = g.add_stage(format!("c{c}-{tag}{d}"), kind);
            g.connect(prev, id).expect("stress stage ids are in range");
            prev = id;
        }
        g.connect(prev, sink).expect("stress stage ids are in range");
    }
    g.validate().expect("stress graph is valid by construction");
    (g, pools)
}

/// Seed the generator RNG from the archetype name and the seed's payload
/// bits (the shrink byte scales ranges but keeps the draw stream, so a
/// shrunk graph resembles its parent).
fn rng_for(archetype: Archetype, seed: u64) -> Rng {
    let digest = md5_strings(&[
        "genflow".to_string(),
        archetype.name().to_string(),
        format!("{:016x}", seed & SEED_PAYLOAD_MASK),
    ]);
    let mixed = u64::from_str_radix(&digest.to_hex()[..16], 16).expect("md5 hex is valid");
    Rng::seed_from_u64(mixed)
}

/// `n` distinct elements of `from`, by partial Fisher–Yates over indices.
fn pick_distinct(rng: &mut Rng, from: &[StageId], n: usize) -> Vec<StageId> {
    let n = n.min(from.len());
    let mut idx: Vec<usize> = (0..from.len()).collect();
    for i in 0..n {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..n].iter().map(|&i| from[i]).collect()
}

fn gen_checkpoint(rng: &mut Rng, prob: f64) -> CheckpointPolicy {
    if rng.gen_bool(prob) {
        CheckpointPolicy::Interval {
            every: SimDuration::from_mins(rng.gen_range(5..=30)),
            cost: SimDuration::from_secs(rng.gen_range(30..=120)),
        }
    } else {
        CheckpointPolicy::None
    }
}

/// Draw one middle-tier stage kind per the archetype's weights, returning a
/// short tag for the stage name alongside the kind.
fn middle_kind(rng: &mut Rng, p: &GenParams, pools: &[CpuPool]) -> (&'static str, StageKind) {
    let total: u32 = p.weights.iter().sum();
    let mut roll = rng.gen_range(0..total);
    let mut pick = p.weights.len() - 1;
    for (i, w) in p.weights.iter().enumerate() {
        if roll < *w {
            pick = i;
            break;
        }
        roll -= w;
    }
    match pick {
        0 => {
            let pool = pools[rng.gen_range(0..pools.len())].name.clone();
            // Slow enough that one block is tens of minutes of CPU time —
            // crash timelines must reliably land mid-task, as in the
            // hand-built crash scenarios.
            let rate_per_cpu = DataRate::mb_per_sec(rng.gen_range(0.5..4.0));
            let cpus_per_task = rng.gen_range(1..=2u32);
            let chunk = if rng.gen_bool(0.25) {
                Some(DataVolume::mib(rng.gen_range(64..=256)))
            } else {
                None
            };
            let output_ratio = rng.gen_range(p.out_ratio.0..=p.out_ratio.1);
            let workspace_ratio = rng.gen_range(0.0..0.5);
            let retain_input = rng.gen_bool(0.1);
            let checkpoint = gen_checkpoint(rng, p.checkpoint_prob);
            (
                "proc",
                StageKind::Process(ProcessSpec {
                    rate_per_cpu,
                    pool,
                    cpus_per_task,
                    chunk,
                    output_ratio,
                    workspace_ratio,
                    retain_input,
                    checkpoint,
                }),
            )
        }
        1 => (
            // Slow enough that blocks spend real time on the wire — the
            // window silent corruption and link faults need to land in.
            "link",
            StageKind::Transfer(TransferSpec {
                rate: DataRate::mb_per_sec(rng.gen_range(5.0..50.0)),
                latency: SimDuration::from_secs(rng.gen_range(1..=30)),
                channels: rng.gen_range(1..=3),
            }),
        ),
        2 => (
            "trig",
            StageKind::Filter(FilterSpec {
                rate: DataRate::mb_per_sec(rng.gen_range(50.0..300.0)),
                accept_ratio: rng.gen_range(0.1..0.9),
                checkpoint: gen_checkpoint(rng, p.checkpoint_prob),
            }),
        ),
        3 => (
            "batch",
            StageKind::Batcher(BatcherSpec {
                batch: rng.gen_range(2..=4),
                linger: SimDuration::from_mins(rng.gen_range(5..=60)),
            }),
        ),
        _ => (
            "dedup",
            StageKind::Dedup(DedupSpec {
                rate: DataRate::mb_per_sec(rng.gen_range(50.0..300.0)),
                unique_ratio: rng.gen_range(0.2..0.9),
                window: rng.gen_range(0..=3),
            }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in Archetype::ALL {
            assert_eq!(Archetype::from_name(a.name()), Some(a));
        }
        assert_eq!(Archetype::from_name("nope"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        for a in Archetype::ALL {
            let x = generate(a, 0xFEED);
            let y = generate(a, 0xFEED);
            assert_eq!(x.graph.len(), y.graph.len());
            for (ia, ib) in x.graph.stage_ids().zip(y.graph.stage_ids()) {
                assert_eq!(x.graph.stage(ia).name, y.graph.stage(ib).name);
                assert_eq!(x.graph.downstream(ia), y.graph.downstream(ib));
            }
            assert_eq!(x.crash_pool, y.crash_pool);
            assert_eq!(x.horizon, y.horizon);
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let sizes: Vec<usize> =
            (0..16u64).map(|s| generate(Archetype::StreamingIngest, s).graph.len()).collect();
        assert!(sizes.iter().any(|&n| n != sizes[0]), "16 seeds all gave size {}", sizes[0]);
    }

    #[test]
    fn generated_graphs_validate_across_seeds_and_levels() {
        for a in Archetype::ALL {
            for s in 0..8u64 {
                for level in 0..=MAX_SHRINK_LEVEL {
                    let flow = generate(a, with_shrink_level(s, level));
                    flow.graph.validate().unwrap();
                    assert!(flow.graph.len() >= 2, "graphs have at least source+sink");
                }
            }
        }
    }

    #[test]
    fn shrink_levels_never_grow_the_graph_family_ranges() {
        // Not a per-seed monotonicity claim (draws shift), but the scaled
        // ranges cap the stage count: level 3 graphs are small.
        for a in Archetype::ALL {
            for s in 0..8u64 {
                let small = generate(a, with_shrink_level(s, MAX_SHRINK_LEVEL));
                assert!(
                    small.graph.len() <= 8,
                    "{a} seed {s}: fully shrunk graph has {} stages",
                    small.graph.len()
                );
            }
        }
    }

    #[test]
    fn shrink_level_round_trips() {
        let seed = 0x00AB_CDEF_0123_4567;
        assert_eq!(shrink_level(seed), 0);
        let s2 = with_shrink_level(seed, 2);
        assert_eq!(shrink_level(s2), 2);
        assert_eq!(s2 & SEED_PAYLOAD_MASK, seed & SEED_PAYLOAD_MASK);
        assert_eq!(shrink_level(u64::MAX), MAX_SHRINK_LEVEL);
    }

    #[test]
    fn stress_flow_is_deterministic_valid_and_runs() {
        use crate::sim::FlowSim;
        use crate::units::SimTime;

        let p = StressParams { chains: 2, depth: 8, blocks: 4 };
        let (g, pools) = stress_flow(&p);
        assert_eq!(g.len(), p.stages());
        let (g2, pools2) = stress_flow(&p);
        for (a, b) in g.stage_ids().zip(g2.stage_ids()) {
            assert_eq!(g.stage(a).name, g2.stage(b).name);
            assert_eq!(g.downstream(a), g2.downstream(b));
        }
        assert_eq!(pools.len(), pools2.len());
        let report = FlowSim::new(g, pools).unwrap().run().unwrap();
        let r2 = FlowSim::new(g2, pools2).unwrap().run().unwrap();
        assert!(report.finished_at > SimTime::ZERO);
        assert_eq!(report, r2, "stress flow replays byte-identically");
    }

    #[test]
    fn default_stress_params_hit_the_bench_scale() {
        let p = StressParams::default();
        assert_eq!(p.stages(), 1002);
    }

    #[test]
    fn digest_everywhere_covers_every_non_source_stage() {
        let flow = generate(Archetype::CdnFanout, 99);
        let g = flow.digest_everywhere();
        for id in g.stage_ids() {
            let stage = g.stage(id);
            if matches!(stage.kind, StageKind::Source(_)) {
                assert!(stage.verify.is_none());
            } else {
                assert!(!stage.verify.is_none(), "stage {} unverified", stage.name);
            }
        }
    }
}
