//! Integration tests for end-to-end integrity verification, quarantine and
//! lineage-driven reprocessing.
//!
//! The load-bearing property: with digest verification at every stage
//! downstream of the corrupting link, *no* tainted block ever escapes into
//! an archive — across arbitrary seeds, not just the goldens. Detection
//! quarantines the bad block and walks its lineage back to the nearest
//! durable ancestor for a clean replay, and the whole dance replays
//! byte-identically from its seed.
//!
//! Every test honours `FAULT_MATRIX_SEED` (see
//! [`sciflow_testkit::matrix_seed`]), the properties through their case
//! seeds: CI sweeps them across fixed seeds.

use sciflow_core::units::SimDuration;
use sciflow_testkit::{
    assert_deterministic, assert_integrity_audit, check, derive_seed, matrix_seed,
    CorruptFlowScenario,
};

/// The sink archive never admits taint when every stage behind it digests
/// its input, and the recovery machinery (quarantine + lineage reprocess)
/// visibly did the work.
#[test]
fn verified_flow_quarantines_and_reprocesses_instead_of_archiving_taint() {
    let seed = matrix_seed(42);
    let s = CorruptFlowScenario::new(seed);
    let report = s.verified();
    assert_integrity_audit(&report);
    assert!(report.total_corrupt_injected() > 0, "the plan must actually taint blocks");
    assert_eq!(report.total_corrupt_escaped(), 0, "digest checks catch every taint");
    assert!(report.total_corrupt_detected() > 0);
    assert!(report.total_quarantined() > 0, "detection must quarantine");
    assert!(report.total_reprocessed_blocks() > 0, "quarantine must trigger lineage replays");
    assert!(report.total_verify_overhead() > SimDuration::ZERO, "checking is never free");
    // Whatever reduce emitted landed in the archive — all of it clean.
    let process = report.stage(CorruptFlowScenario::PROCESS).unwrap();
    let archive = report.stage(CorruptFlowScenario::ARCHIVE).unwrap();
    assert_eq!(archive.volume_in, process.volume_out);
    assert_eq!(archive.corrupt_escaped, 0);
}

/// Under the identical fault plan, verification strictly improves on the
/// unverified run: everything that escaped before is now caught.
#[test]
fn verification_strictly_reduces_escapes_on_the_same_plan() {
    let seed = matrix_seed(42);
    let s = CorruptFlowScenario::new(seed);
    let unverified = s.unverified();
    let verified = s.verified();
    assert_integrity_audit(&unverified);
    assert_integrity_audit(&verified);
    assert!(unverified.total_corrupt_escaped() > 0, "unverified taint must reach the archive");
    assert!(verified.total_corrupt_escaped() < unverified.total_corrupt_escaped());
    // No checks, no cost — and nothing to quarantine or replay.
    assert_eq!(unverified.total_verify_overhead(), SimDuration::ZERO);
    assert_eq!(unverified.total_quarantined(), 0);
    assert_eq!(unverified.total_reprocessed_blocks(), 0);
}

/// The verified run — sampling RNG, quarantine decisions, lineage replays
/// and all — is a pure function of its seed.
#[test]
fn verified_runs_replay_byte_identically() {
    let seed = matrix_seed(42);
    let report = assert_deterministic(seed, |sd| CorruptFlowScenario::new(sd).verified());
    assert!(report.total_corrupt_detected() > 0, "replay equality must cover live counters");
}

/// Distinct sub-seeds of one master give decorrelated corruption timelines,
/// and the zero-escape guarantee holds on each of them.
#[test]
fn zero_escapes_hold_across_a_derived_seed_sweep() {
    let master = matrix_seed(42);
    for label in ["sweep-a", "sweep-b", "sweep-c", "sweep-d"] {
        let report = CorruptFlowScenario::new(derive_seed(master, label)).verified();
        assert_integrity_audit(&report);
        assert_eq!(report.total_corrupt_escaped(), 0, "taint escaped under label {label}");
    }
}

/// Digest verification everywhere downstream of the link ⇒ zero escapes,
/// for *any* seed — the property the whole subsystem exists to provide.
#[test]
fn digest_everywhere_never_lets_taint_escape() {
    check("digest_everywhere_never_lets_taint_escape", 64, |g| {
        let seed = g.any::<u64>();
        let report = CorruptFlowScenario::new(seed).verified();
        assert_integrity_audit(&report);
        assert_eq!(report.total_corrupt_escaped(), 0, "taint escaped for seed {}", seed);
        // Whenever the plan tainted anything, the checks saw it.
        if report.total_corrupt_injected() > 0 {
            assert!(report.total_corrupt_detected() > 0);
        }
    });
}

/// The taint ledger balances even with no verification anywhere: every
/// injected block is accounted for as detected (destroyed in transit)
/// or escaped, never double-counted, never dropped.
#[test]
fn integrity_audit_holds_without_verification() {
    check("integrity_audit_holds_without_verification", 64, |g| {
        let seed = g.any::<u64>();
        let report = CorruptFlowScenario::new(seed).unverified();
        assert_integrity_audit(&report);
        assert!(report.total_corrupt_escaped() <= report.total_corrupt_injected());
        // An unverified flow can never quarantine or replay anything.
        assert_eq!(report.total_quarantined(), 0);
        assert_eq!(report.total_reprocessed_blocks(), 0);
    });
}
