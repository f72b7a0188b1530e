//! Property-testing harness over the workload zoo.
//!
//! [`GeneratedScenario`] wraps a [`GenFlow`] from
//! [`sciflow_core::genflow::generate`] with the same run modes the
//! hand-built scenarios expose — clean, corrupt, corrupt-with-digests,
//! crashy, channel-crashy, traced — each under a fault plan derived from the
//! graph's own seed. [`check_generated`] then drives an invariant over a
//! whole batch of seeds, and when one fails it *shrinks*: the same seed
//! payload is re-run at higher shrink levels (smaller graphs from the same
//! draw stream) and the smallest still-failing `(archetype, seed)` pair is
//! reported, ready to paste back into `generate` to reproduce the failure
//! anywhere.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::genflow::{generate, Archetype, GenFlow, SEED_PAYLOAD_MASK};
use sciflow_core::graph::{FlowGraph, StageKind};
use sciflow_core::metrics::SimReport;
use sciflow_core::sim::FlowSim;
use sciflow_core::trace::{TraceRecorder, TraceSnapshot};
use sciflow_core::units::SimDuration;

use crate::property::shrink;
use crate::rng::derive_seed;

/// A zoo graph plus everything needed to execute it under each fault
/// regime. Fully determined by the `(archetype, seed)` pair.
#[derive(Debug, Clone)]
pub struct GeneratedScenario {
    pub flow: GenFlow,
    pub policy: RetryPolicy,
}

impl GeneratedScenario {
    pub fn new(archetype: Archetype, seed: u64) -> Self {
        GeneratedScenario { flow: generate(archetype, seed), policy: RetryPolicy::default() }
    }

    /// The seeded fault timeline for one run mode (same seed, same plan).
    fn plan(&self, label: &str, profile: &FaultProfile) -> FaultPlan {
        FaultPlan::generate(derive_seed(self.flow.seed, label), self.flow.horizon, profile)
    }

    fn sim(&self, graph: FlowGraph) -> FlowSim {
        FlowSim::new(graph, self.flow.pools.clone()).expect("generated graph is valid")
    }

    /// The not-yet-started simulator behind [`GeneratedScenario::run_clean`].
    /// Rebuilding it from the same pair is how the resume-identity suite
    /// reconstructs a crashed run's exact configuration.
    pub fn sim_clean(&self) -> FlowSim {
        self.sim(self.flow.graph.clone())
    }

    /// The simulator behind [`GeneratedScenario::run_corrupt`].
    pub fn sim_corrupt(&self) -> FlowSim {
        let profile = self.flow.corrupt_profile();
        self.sim(self.flow.graph.clone())
            .with_faults(self.plan("zoo-corrupt", &profile), self.policy)
    }

    /// The simulator behind [`GeneratedScenario::run_corrupt_verified`].
    pub fn sim_corrupt_verified(&self) -> FlowSim {
        let profile = self.flow.corrupt_profile();
        self.sim(self.flow.digest_everywhere())
            .with_faults(self.plan("zoo-corrupt", &profile), self.policy)
    }

    /// The simulator behind [`GeneratedScenario::run_crashy`]; `None` when
    /// the graph has no process stage (nothing to crash).
    pub fn sim_crashy(&self) -> Option<FlowSim> {
        let profile = self.flow.crash_profile()?;
        Some(
            self.sim(self.flow.graph.clone())
                .with_faults(self.plan("zoo-crash", &profile), self.policy),
        )
    }

    /// Crashes and outages aimed at the private `"{stage}#channel"` resource
    /// of every transfer, filter and dedup stage — per channel about one
    /// single-unit crash every five minutes, two minutes to repair, and an
    /// outage every half hour, five minutes to repair, on a timeline seeded
    /// from the stage's name. Dense, so that across a batch of graphs the
    /// crashes reliably land on running inspections. `None` when the graph
    /// has no such stage.
    pub fn channel_crash_plan(&self) -> Option<FaultPlan> {
        let g = &self.flow.graph;
        let events: Vec<_> = g
            .stage_ids()
            .map(|id| g.stage(id))
            .filter(|st| {
                matches!(
                    st.kind,
                    StageKind::Transfer(_) | StageKind::Filter(_) | StageKind::Dedup(_)
                )
            })
            .flat_map(|st| {
                let channel = format!("{}#channel", st.name);
                let profile =
                    FaultProfile::node_crashes(channel, 288.0, 1, SimDuration::from_mins(2))
                        .with_outages(48.0, SimDuration::from_mins(5));
                self.plan(&format!("zoo-channel-{}", st.name), &profile).events().to_vec()
            })
            .collect();
        (!events.is_empty())
            .then(|| FaultPlan::from_events(derive_seed(self.flow.seed, "zoo-channel"), events))
    }

    /// The simulator behind [`GeneratedScenario::run_channel_crashy`].
    pub fn sim_channel_crashy(&self) -> Option<FlowSim> {
        let plan = self.channel_crash_plan()?;
        Some(self.sim(self.flow.graph.clone()).with_faults(plan, self.policy))
    }

    /// The simulator behind [`GeneratedScenario::run_traced`], reporting to
    /// the caller's recorder so killed / resumed runs can each keep their
    /// own trace.
    pub fn sim_traced(&self, trace: TraceRecorder) -> FlowSim {
        let profile = self.flow.corrupt_profile();
        self.sim(self.flow.graph.clone())
            .with_faults(self.plan("zoo-corrupt", &profile), self.policy)
            .with_observer(trace)
    }

    /// Fault-free run: the strictest conservation laws apply.
    pub fn run_clean(&self) -> SimReport {
        self.sim_clean().run().expect("generated flow converges")
    }

    /// Run under link faults and dense silent corruption, with whatever
    /// verification the generator decorated (possibly none).
    pub fn run_corrupt(&self) -> SimReport {
        self.sim_corrupt().run().expect("generated flow converges")
    }

    /// The same corrupt timeline against the digest-everywhere variant of
    /// the graph: no taint can escape.
    pub fn run_corrupt_verified(&self) -> SimReport {
        self.sim_corrupt_verified().run().expect("generated flow converges")
    }

    /// Run under node crashes against the graph's first referenced pool;
    /// `None` when the graph has no process stage (nothing to crash).
    pub fn run_crashy(&self) -> Option<SimReport> {
        Some(self.sim_crashy()?.run().expect("generated flow converges"))
    }

    /// Run under [`GeneratedScenario::channel_crash_plan`]: inspections are
    /// killed mid-block and blocks arrive at channels that are down.
    pub fn run_channel_crashy(&self) -> Option<SimReport> {
        Some(self.sim_channel_crashy()?.run().expect("generated flow converges"))
    }

    /// The corrupt run with a trace recorder attached, for trace/report
    /// conservation checks.
    pub fn run_traced(&self) -> (SimReport, TraceSnapshot) {
        let trace = TraceRecorder::new();
        let report = self.sim_traced(trace.clone()).run().expect("generated flow converges");
        (report, trace.snapshot())
    }
}

/// Run `check` against one generated graph per seed; on failure, shrink and
/// panic with the smallest still-failing `(archetype, seed)` pair.
///
/// Seeds are masked to shrink level 0 (full-size graphs) before the first
/// attempt. A failing seed is then re-run at levels 3, 2, 1 — smaller
/// graphs from the same draw stream — and the deepest level that still
/// fails names the counterexample. The panic message quotes the pair in a
/// form that regenerates the graph byte-for-byte on any machine:
/// `generate(archetype, seed)`.
pub fn check_generated(
    archetype: Archetype,
    seeds: impl IntoIterator<Item = u64>,
    check: impl Fn(&GeneratedScenario),
) {
    for seed in seeds {
        let seed = seed & SEED_PAYLOAD_MASK;
        if attempt(archetype, seed, &check) {
            continue;
        }
        let culprit = shrink(seed, |candidate| !attempt(archetype, candidate, &check));
        panic!(
            "zoo property failed on archetype `{archetype}`, seed {culprit:#018x} \
             (shrunk from {seed:#018x}); reproduce with \
             sciflow_core::genflow::generate(\
             Archetype::from_name(\"{archetype}\").unwrap(), {culprit:#018x})"
        );
    }
}

/// `true` when `check` passes on the pair without panicking.
fn attempt(archetype: Archetype, seed: u64, check: &impl Fn(&GeneratedScenario)) -> bool {
    catch_unwind(AssertUnwindSafe(|| check(&GeneratedScenario::new(archetype, seed)))).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_replay_identically() {
        let s = GeneratedScenario::new(Archetype::ReductionChain, 11);
        assert_eq!(s.run_clean(), s.run_clean());
        assert_eq!(s.run_corrupt(), s.run_corrupt());
    }

    #[test]
    fn passing_checks_stay_silent() {
        check_generated(Archetype::WideScatter, 0..4u64, |s| {
            let report = s.run_clean();
            assert_eq!(report.ledger_underflows, 0);
        });
    }

    #[test]
    fn failing_checks_report_a_reproducible_pair() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_generated(Archetype::WideScatter, [5u64], |_| panic!("always fails"));
        }))
        .expect_err("the check always fails");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("wide-scatter"), "{msg}");
        assert!(msg.contains("generate("), "{msg}");
    }
}
