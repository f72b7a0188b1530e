//! Golden-report regression tests for the three case-study flows.
//!
//! Each default flow (and a seeded faulted variant of it) must render to the
//! exact committed snapshot under `tests/golden/`. The snapshots were
//! captured from the pre-refactor monolithic `FlowSim`, so these tests are
//! the proof that the engine / stage-behavior / resource split is
//! behavior-preserving: same seeds, same fault plans, identical reports.
//!
//! Regenerate (only for an *intentional* behavior change) with
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports`.

use std::path::PathBuf;

use sciflow_arecibo::flow::{
    arecibo_flow_graph, arecibo_observe_preset, AreciboFlowParams, CTC_POOL,
};
use sciflow_cleo::flow::{
    cleo_flow_graph, cleo_slo_preset, reprocess_pass_profile, wilson_crash_profile, CleoFlowParams,
    WILSON_POOL,
};
use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::fnv::fnv1a;
use sciflow_core::genflow::Archetype;
use sciflow_core::graph::FlowGraph;
use sciflow_core::metrics::SimReport;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::trace::ObserveConfig;
use sciflow_core::units::{DataRate, SimDuration};
use sciflow_testkit::GeneratedScenario;
use sciflow_testkit::{
    assert_deterministic, assert_integrity_audit, assert_matches_golden, assert_matches_golden_text,
};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

/// Seed shared by every golden fault plan.
const GOLDEN_SEED: u64 = 42;

/// The committed zoo archetype pin: one generated graph frozen forever. The
/// seed is arbitrary but fixed — deliberately *not* derived from
/// `FAULT_MATRIX_SEED`, so every CI matrix entry checks the same snapshot.
const ZOO_GOLDEN_SEED: u64 = 0xA11CE;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{name}.txt"))
}

/// Disk shipments take days, so the Arecibo plan must be gentle enough that
/// retries actually recover: about one drop a week against ~6.5-day
/// shipments, plus stalls that stretch the dedispersion tasks.
fn arecibo_faults() -> FaultPlan {
    let profile = FaultProfile {
        drops_per_day: 0.15,
        stalls_per_day: 2.0,
        mean_stall: SimDuration::from_mins(30),
        corrupts_per_day: 0.05,
        degrades_per_day: 0.2,
        degrade_factor: 0.7,
        mean_degrade: SimDuration::from_hours(2),
        ..FaultProfile::clean()
    };
    FaultPlan::generate(GOLDEN_SEED, SimDuration::from_days(90), &profile)
}

fn arecibo_report(faults: Option<FaultPlan>) -> SimReport {
    let graph = arecibo_flow_graph(&AreciboFlowParams::default());
    let pools = vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)];
    let mut sim = FlowSim::new(graph, pools).expect("valid flow");
    if let Some(plan) = faults {
        sim = sim.with_faults(plan, RetryPolicy::default());
    }
    sim.run().expect("flow completes")
}

/// USB shipments are ~2.2 days door to door; drops every few days force
/// some retransmission without abandoning whole shipments.
fn cleo_faults() -> FaultPlan {
    let profile = FaultProfile {
        drops_per_day: 0.3,
        stalls_per_day: 3.0,
        mean_stall: SimDuration::from_mins(10),
        corrupts_per_day: 0.1,
        degrades_per_day: 0.5,
        degrade_factor: 0.6,
        mean_degrade: SimDuration::from_hours(1),
        ..FaultProfile::clean()
    };
    FaultPlan::generate(GOLDEN_SEED, SimDuration::from_days(30), &profile)
}

fn cleo_report(faults: Option<FaultPlan>) -> SimReport {
    let graph = cleo_flow_graph(&CleoFlowParams::default());
    let mut sim = FlowSim::new(graph, vec![CpuPool::new(WILSON_POOL, 32)]).expect("valid flow");
    if let Some(plan) = faults {
        sim = sim.with_faults(plan, RetryPolicy::default());
    }
    sim.run().expect("flow completes")
}

/// CLEO reconstruction on a crashing Wilson-lab farm: the pool is squeezed
/// to 4 CPUs so it runs saturated and the ~daily crash draws land on busy
/// ones. The checkpointed variant reruns the *same* plan with 5-minute
/// checkpoints on the reconstruction stage.
fn cleo_crash_faults() -> FaultPlan {
    let profile = wilson_crash_profile(24.0, SimDuration::from_mins(20));
    FaultPlan::generate(GOLDEN_SEED, SimDuration::from_days(14), &profile)
}

fn cleo_crash_report(checkpointed: bool) -> SimReport {
    let mut params = CleoFlowParams::default();
    if checkpointed {
        params = params.with_recon_checkpoint(SimDuration::from_mins(5));
    }
    FlowSim::new(cleo_flow_graph(&params), vec![CpuPool::new(WILSON_POOL, 4)])
        .expect("valid flow")
        .with_faults(cleo_crash_faults(), RetryPolicy::default())
        .run()
        .expect("flow completes")
}

/// Silent corruption only, on the USB couriers: multi-day shipment windows
/// each see a few latent bit flips, and nothing else goes wrong — so the
/// pair of goldens below isolates what verification changes.
fn cleo_corrupt_faults() -> FaultPlan {
    FaultPlan::generate(GOLDEN_SEED, SimDuration::from_days(21), &reprocess_pass_profile(1.5))
}

fn cleo_corrupt_report(verified: bool) -> SimReport {
    let mut params = CleoFlowParams::default();
    if verified {
        params = params.with_eventstore_verification(DataRate::mb_per_sec(200.0));
    }
    FlowSim::new(cleo_flow_graph(&params), vec![CpuPool::new(WILSON_POOL, 32)])
        .expect("valid flow")
        .with_faults(cleo_corrupt_faults(), RetryPolicy::default())
        .run()
        .expect("flow completes")
}

/// The WebLab link is the canonical flaky commodity link.
fn weblab_faults() -> FaultPlan {
    FaultPlan::generate(GOLDEN_SEED, SimDuration::from_days(30), &FaultProfile::flaky())
}

fn weblab_report(faults: Option<FaultPlan>) -> SimReport {
    let graph = weblab_flow_graph(&WeblabFlowParams::default());
    let mut sim = FlowSim::new(graph, vec![CpuPool::new(WEBLAB_POOL, 16)]).expect("valid flow");
    if let Some(plan) = faults {
        sim = sim.with_faults(plan, RetryPolicy::default());
    }
    sim.run().expect("flow completes")
}

#[test]
fn arecibo_default_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| arecibo_report(None));
    assert_matches_golden(golden_path("arecibo_clean"), &report);
}

#[test]
fn arecibo_faulted_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| arecibo_report(Some(arecibo_faults())));
    assert_matches_golden(golden_path("arecibo_faulted"), &report);
}

#[test]
fn cleo_default_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_report(None));
    assert_matches_golden(golden_path("cleo_clean"), &report);
}

/// When each default-parameter case study finishes on the pools the retired
/// `BENCH_7`…`BENCH_10` records ran them with — the one thing those records
/// pinned that no golden does (the CLEO goldens run a 32-processor farm,
/// the records ran 64).
#[test]
fn case_study_finish_times_are_pinned() {
    let finished_at_us = |r: &SimReport| r.finished_at.as_micros();
    assert_eq!(finished_at_us(&arecibo_report(None)), 2_841_083_333_333);
    let cleo = FlowSim::new(
        cleo_flow_graph(&CleoFlowParams::default()),
        vec![CpuPool::new(WILSON_POOL, 64)],
    );
    let cleo = cleo.expect("valid flow").run().expect("flow completes");
    assert_eq!(finished_at_us(&cleo), 381_600_000_000);
    assert_eq!(finished_at_us(&weblab_report(None)), 1_170_849_000_000);
}

/// The whole `to_json()` of four decorated runs, as `(length, FNV-1a)`:
/// each case study observed (Arecibo with its preset, CLEO every half hour,
/// WebLab every six hours) on the pools above, and CLEO
/// with its SLO preset on one CPU. No golden holds a time series, and
/// `cleo_slo_alerts.txt` holds only the alert lines.
#[test]
fn decorated_case_study_reports_are_pinned() {
    let pin = |graph: FlowGraph, pools: Vec<CpuPool>| {
        let report = FlowSim::new(graph, pools).expect("valid flow").run().expect("flow completes");
        let json = report.to_json();
        (json.len(), fnv1a(json.as_bytes()))
    };
    let mut arecibo = arecibo_flow_graph(&AreciboFlowParams::default());
    arecibo.set_observe(arecibo_observe_preset());
    let arecibo_pools = vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)];
    let mut cleo = cleo_flow_graph(&CleoFlowParams::default());
    cleo.set_observe(ObserveConfig::every(SimDuration::from_mins(30)));
    let mut weblab = weblab_flow_graph(&WeblabFlowParams::default());
    weblab.set_observe(ObserveConfig::every(SimDuration::from_hours(6)));
    let mut cleo_slo = cleo_flow_graph(&CleoFlowParams::default());
    cleo_slo.set_slos(cleo_slo_preset(&CleoFlowParams::default()));
    let pins = [
        pin(arecibo, arecibo_pools),
        pin(cleo, vec![CpuPool::new(WILSON_POOL, 64)]),
        pin(weblab, vec![CpuPool::new(WEBLAB_POOL, 16)]),
        pin(cleo_slo, vec![CpuPool::new(WILSON_POOL, 1)]),
    ];
    assert_eq!(
        pins,
        [
            (21_963, 0x2439_f018_b17c_0aed),
            (28_434, 0x10b4_0694_3f30_fb44),
            (9_925, 0x4ad2_0dfa_317c_4608),
            (4_307, 0xc510_87f0_d03a_ebef),
        ]
    );
}

/// The machine-readable export is held to the same standard as the text
/// rendering: the default CLEO flow's [`SimReport::to_json`] must match a
/// committed snapshot byte for byte, pinning the JSON schema and key order.
#[test]
fn cleo_default_flow_json_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_report(None));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("cleo_baseline.json");
    assert_matches_golden_text(path, &report.to_json());
}

#[test]
fn cleo_faulted_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_report(Some(cleo_faults())));
    assert_matches_golden(golden_path("cleo_faulted"), &report);
}

#[test]
fn cleo_crashed_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_crash_report(false));
    assert_matches_golden(golden_path("cleo_crashed"), &report);
}

#[test]
fn cleo_crashed_checkpointed_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_crash_report(true));
    assert_matches_golden(golden_path("cleo_crashed_checkpointed"), &report);
}

#[test]
fn cleo_silent_corrupt_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_corrupt_report(false));
    assert_matches_golden(golden_path("cleo_silent_corrupt"), &report);
}

#[test]
fn cleo_silent_corrupt_verified_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| cleo_corrupt_report(true));
    assert_matches_golden(golden_path("cleo_silent_corrupt_verified"), &report);
}

#[test]
fn weblab_default_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| weblab_report(None));
    assert_matches_golden(golden_path("weblab_clean"), &report);
}

#[test]
fn weblab_faulted_flow_matches_golden() {
    let report = assert_deterministic(GOLDEN_SEED, |_| weblab_report(Some(weblab_faults())));
    assert_matches_golden(golden_path("weblab_faulted"), &report);
}

/// The faulted goldens must not be degenerate: faults and retries actually
/// fired, and the flows still delivered data downstream.
#[test]
fn faulted_scenarios_are_non_degenerate() {
    let arecibo = arecibo_report(Some(arecibo_faults()));
    assert!(arecibo.total_faults() > 0, "arecibo plan never fired");
    assert!(arecibo.stage("tape-archive").unwrap().blocks_in > 0, "nothing shipped");

    let cleo = cleo_report(Some(cleo_faults()));
    assert!(cleo.total_faults() > 0, "cleo plan never fired");
    assert!(cleo.stage("collaboration-eventstore").unwrap().blocks_in > 0, "store got nothing");

    let weblab = weblab_report(Some(weblab_faults()));
    assert!(weblab.total_retries() > 0, "flaky link never retried");
    assert!(weblab.stage("page-store").unwrap().blocks_in > 0, "no pages landed");
}

/// The corruption golden pair must show verification *working*: under the
/// identical plan, the unverified run lets taint into the archive and the
/// verified run strictly reduces that to zero, with quarantine and a
/// lineage-driven reprocess pass visible in the report.
#[test]
fn corruption_goldens_are_non_degenerate() {
    let unverified = cleo_corrupt_report(false);
    let verified = cleo_corrupt_report(true);
    assert_integrity_audit(&unverified);
    assert_integrity_audit(&verified);
    assert!(unverified.total_corrupt_injected() > 0, "corruption plan never fired");
    assert!(unverified.total_corrupt_escaped() > 0, "unverified taint must reach the store");
    assert_eq!(verified.total_corrupt_escaped(), 0, "verification must catch everything");
    assert!(verified.total_corrupt_escaped() < unverified.total_corrupt_escaped());
    assert!(verified.stage("collaboration-eventstore").unwrap().quarantined > 0);
    assert!(verified.stage("usb-shipping").unwrap().reprocessed_blocks > 0);
}

/// The workload zoo's committed archetype: a `reduction-chain` graph at a
/// fixed seed must render to the exact committed snapshot. Unlike the
/// case-study goldens this pins the *generator* too — any drift in
/// `genflow`'s draw order, archetype parameter tables, or seeding scheme
/// changes the graph and shows up here as a diff, not as a silent reshuffle
/// of every property-test battery.
#[test]
fn zoo_reduction_chain_matches_golden() {
    let report = assert_deterministic(ZOO_GOLDEN_SEED, |seed| {
        GeneratedScenario::new(Archetype::ReductionChain, seed).run_clean()
    });
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("zoo_reduction_chain.golden");
    assert_matches_golden(path, &report);
}

/// Replay identity for the committed pair, in every run mode: rebuilding the
/// scenario from `(archetype, seed)` twice must reproduce byte-identical
/// reports under clean, corrupt, and crashy regimes alike.
#[test]
fn zoo_reduction_chain_replays_identically() {
    let a = GeneratedScenario::new(Archetype::ReductionChain, ZOO_GOLDEN_SEED);
    let b = GeneratedScenario::new(Archetype::ReductionChain, ZOO_GOLDEN_SEED);
    assert_eq!(a.run_clean(), b.run_clean(), "clean replay diverged");
    assert_eq!(a.run_corrupt(), b.run_corrupt(), "corrupt replay diverged");
    assert_eq!(a.run_crashy(), b.run_crashy(), "crashy replay diverged");
}

/// Nor may the crash goldens be: the plan must actually kill reconstruction
/// tasks, and checkpointing must salvage work relative to the plain run of
/// the very same plan.
#[test]
fn crash_goldens_are_non_degenerate() {
    let plain = cleo_crash_report(false);
    let ckpt = cleo_crash_report(true);
    let (p, c) = (
        plain.stage("reconstruction").unwrap().clone(),
        ckpt.stage("reconstruction").unwrap().clone(),
    );
    assert!(p.crashes > 0, "crash plan never killed a reconstruction task");
    assert!(
        c.work_lost < p.work_lost,
        "5-minute checkpoints must salvage work: {} vs {}",
        c.work_lost,
        p.work_lost
    );
    // Crashes cost time, never data.
    assert_eq!(
        plain.stage("collaboration-eventstore").unwrap().volume_in,
        ckpt.stage("collaboration-eventstore").unwrap().volume_in
    );
}
