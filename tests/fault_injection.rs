//! Integration tests for the fault-injection and retry layer.
//!
//! Exercised end to end: a lossy link recovers via retries with bytes
//! conserved; a dead link degrades the transfer-vs-shipping verdict to
//! shipping instead of hanging; persistent stalls end in a give-up, not a
//! hang; and replaying a seeded scenario yields byte-identical reports,
//! retry and fault counters included.

use sciflow_core::fault::{FaultKind, FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};
use sciflow_simnet::link::NetworkLink;
use sciflow_simnet::profiles::{arecibo_to_ctc, ata_disk};
use sciflow_simnet::transfer::{compare, compare_with_faults, ReliableComparison, TransferMode};
use sciflow_testkit::{
    assert_deterministic, assert_flow_transfer_conservation, assert_monotone_sim_time, derive_seed,
    LossyFlowScenario,
};

/// The verdict for `volume` over `link` against couriered Arecibo disks,
/// the network leg run through `plan` under `policy`.
fn leg(
    volume: DataVolume,
    link: &NetworkLink,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> ReliableComparison {
    compare_with_faults(volume, link, plan, policy, &ata_disk(), &arecibo_to_ctc())
}

#[test]
fn lossy_link_recovers_via_retries_and_conserves_bytes() {
    // 100 GB over a WebLab-style 100 Mb/s link through a week of faults
    // that resets the connection every few simulated hours.
    let profile = FaultProfile {
        drops_per_day: 8.0,
        stalls_per_day: 1.0,
        mean_stall: SimDuration::from_mins(5),
        corrupts_per_day: 0.5,
        degrades_per_day: 1.0,
        degrade_factor: 0.5,
        mean_degrade: SimDuration::from_mins(30),
        ..FaultProfile::clean()
    };
    let plan = FaultPlan::generate(
        derive_seed(0xA5EC1B0, "lossy-link"),
        SimDuration::from_days(7),
        &profile,
    );
    // The acceptance bar: the seeded plan is genuinely drop-heavy.
    let drops = plan.count(|k| matches!(k, FaultKind::Drop)) as f64 / plan.len() as f64;
    assert!(drops >= 0.10, "drop fraction {drops} below 10%");
    let link = NetworkLink::new(
        "lossy-internet2",
        DataRate::mbit_per_sec(100.0),
        SimDuration::from_micros(35_000),
    );
    let volume = DataVolume::gb(100);
    let result = leg(volume, &link, &plan, RetryPolicy::default());
    let network = result.network.expect("a live link runs the leg");
    assert!(result.comparison.network_time.is_some(), "retries ride out the lossy link");
    assert!(network.retries > 0, "a drop-heavy plan must force retries");
    assert_eq!(network.volume_retransmitted, volume * network.retries);
    assert_eq!(network.volume_out, volume);
    assert_flow_transfer_conservation(&network);
}

#[test]
fn lossy_flow_completes_with_conservation_and_counters() {
    let scenario = LossyFlowScenario::new(0xF10);
    let report = scenario.run();
    assert_monotone_sim_time(&report);
    let link = report.stage(LossyFlowScenario::LINK).unwrap();
    assert_flow_transfer_conservation(link);
    assert!(link.faults > 0, "the seeded plan must actually perturb the flow");
    assert!(link.retries > 0, "drops must force retries");
    // Whatever survived the link landed in the archive, byte for byte.
    let archive = report.stage(LossyFlowScenario::ARCHIVE).unwrap();
    assert_eq!(archive.volume_in, link.volume_out);
    assert_eq!(
        link.volume_in,
        link.volume_out + link.volume_lost + link.final_queue_volume,
        "conservation across retries"
    );
}

#[test]
fn replaying_a_seed_reproduces_the_simreport_counters_and_all() {
    let report = assert_deterministic(0xD5, |seed| LossyFlowScenario::new(seed).run());
    // The determinism assertion covers every field including the new
    // counters; spot-check that the counters are actually non-trivial so
    // the equality is meaningful.
    assert!(report.total_faults() > 0);
    assert!(report.total_retries() > 0);
}

#[test]
fn dead_link_tips_the_verdict_to_shipping() {
    let down = NetworkLink::new("hurricane-takedown", DataRate::ZERO, SimDuration::ZERO);
    let result = leg(DataVolume::tb(2), &down, &FaultPlan::none(), RetryPolicy::default());
    assert_eq!(result.comparison.winner, TransferMode::Shipping);
    assert!(result.comparison.network_time.is_none());
    assert_eq!(result.network, None, "a dead link is refused before anything runs");
}

#[test]
fn relentless_drops_degrade_the_verdict_to_shipping() {
    // A drop every ten simulated minutes for a month: no multi-hour bulk
    // transfer can complete, so retries exhaust and shipping wins.
    let events = (0..(30 * 144))
        .map(|i| sciflow_core::fault::FaultEvent {
            at: SimTime::from_micros(i * 600_000_000),
            kind: FaultKind::Drop,
        })
        .collect();
    let plan = FaultPlan::from_events(9, events);
    let link = NetworkLink::new(
        "flaky-uplink",
        DataRate::mbit_per_sec(10.0),
        SimDuration::from_micros(80_000),
    );
    let result = leg(DataVolume::tb(2), &link, &plan, RetryPolicy::default());
    assert_eq!(result.comparison.winner, TransferMode::Shipping);
    assert!(result.comparison.network_time.is_none());
    let network = result.network.expect("a live link runs the leg");
    assert_eq!((network.blocks_failed, network.retries), (1, 6), "seven attempts, then give up");
}

#[test]
fn persistent_stalls_are_a_typed_timeout_not_a_hang() {
    // Stalls arrive far faster than the timeout allows.
    let plan = FaultPlan::generate(
        77,
        SimDuration::from_days(30),
        &FaultProfile {
            drops_per_day: 0.0,
            stalls_per_day: 200.0,
            mean_stall: SimDuration::from_hours(4),
            corrupts_per_day: 0.0,
            degrades_per_day: 0.0,
            degrade_factor: 1.0,
            mean_degrade: SimDuration::ZERO,
            ..FaultProfile::clean()
        },
    );
    let link = NetworkLink::new(
        "stalling-link",
        DataRate::mbit_per_sec(100.0),
        SimDuration::from_micros(35_000),
    );
    let policy = RetryPolicy {
        max_retries: 3,
        attempt_timeout: Some(SimDuration::from_mins(30)),
        ..RetryPolicy::default()
    };
    let result = leg(DataVolume::tb(1), &link, &plan, policy);
    assert_eq!(result.comparison.winner, TransferMode::Shipping);
    assert!(result.comparison.network_time.is_none());
    let network = result.network.expect("a live link runs the leg");
    assert_eq!((network.blocks_failed, network.retries), (1, 3), "four attempts, then give up");
}

#[test]
fn clean_plan_matches_the_faultless_baseline() {
    // With an empty fault plan the executed leg must agree exactly with the
    // link's idealized transfer_time, and the verdict with `compare`'s.
    let link = NetworkLink::new(
        "internet2",
        DataRate::mbit_per_sec(500.0),
        SimDuration::from_micros(35_000),
    );
    let volume = DataVolume::tb(1);
    let result = leg(volume, &link, &FaultPlan::none(), RetryPolicy::default());
    assert_eq!(result.comparison.network_time, link.transfer_time(volume));
    assert_eq!(result.comparison, compare(volume, &link, &ata_disk(), &arecibo_to_ctc()));
    let network = result.network.expect("a live link runs the leg");
    assert_eq!((network.retries, network.faults), (0, 0));
}
