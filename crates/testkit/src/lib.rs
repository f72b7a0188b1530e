//! # sciflow-testkit
//!
//! The workspace test kit: everything the integration suite needs to state
//! *invariants* instead of brittle exact values.
//!
//! The simulators in this workspace are deterministic by construction —
//! seeded xoshiro RNG streams, tie-broken event heaps, sorted reports — and
//! this crate is where that contract is enforced:
//!
//! * [`rng`] — stable seed derivation and the CI matrix seed, so every test
//!   names its randomness;
//! * [`scenarios`] — seeded builders for the recurring test fixtures (a
//!   lossy flow, a crashing pool, silent corruption), each replayable from
//!   one `u64`;
//! * [`property`] — the property harness: [`property::check`] runs a
//!   property over seeded cases drawn through a [`property::Gen`] and
//!   reports a failure as one shrunk, replayable case seed;
//! * [`generated`] — the workload-zoo harness: run modes over
//!   [`sciflow_core::genflow`] graphs and [`generated::check_generated`],
//!   which shrinks with the same loop and reports failures as a
//!   reproducible `(archetype, seed)` pair;
//! * [`invariants`] — checkers for the properties that must survive fault
//!   injection: conservation of bytes across retries, monotone simulated
//!   time, provenance-hash stability across replays;
//! * [`determinism`] — [`determinism::assert_deterministic`], which replays
//!   a seeded scenario and requires byte-identical results;
//! * [`replicated`] — seeded multi-replica EventStore fleets with generated
//!   operation histories over faulty links,
//!   [`replicated::assert_convergence`], the byte-identical-after-quiescence
//!   acceptance bar of the replication layer, and
//!   [`replicated::cut_journal`], which leaves a durable replica as a kill
//!   after its k-th journal append leaves it.

pub mod determinism;
pub mod generated;
pub mod golden;
pub mod invariants;
pub mod property;
pub mod replicated;
pub mod rng;
pub mod scenarios;
pub mod sealed;

pub use determinism::{assert_deterministic, assert_exposition_deterministic};
pub use generated::{check_generated, GeneratedScenario};
pub use golden::{assert_matches_golden, assert_matches_golden_text, canonical_report};
pub use invariants::{
    assert_checkpoint_bound, assert_crash_recovery, assert_flow_transfer_conservation,
    assert_generated_conservation, assert_generated_drained, assert_integrity_audit,
    assert_monotone_sim_time, assert_trace_conservation,
};
pub use property::{check, Gen};
pub use replicated::{
    assert_convergence, cut_journal, dense_link_faults, registered_ids, History, ReplicatedScenario,
};
pub use rng::{derive_seed, matrix_seed};
pub use scenarios::{
    CorruptFlowScenario, CrashFlowScenario, LossyFlowScenario, SharedPoolScenario,
    TracedFlowScenario,
};
pub use sealed::{assert_sealed_roundtrip, TailPolicy};
