//! Transfer planning: network vs physical shipment.
//!
//! Section 5 of the paper frames the choice exactly: "The currently
//! available best solutions are very different in nature, mostly determined
//! by bandwidth considerations and cost: physical disk transfer vs. a
//! dedicated link to Internet2" — and, for CLEO, "a Grid-based approach will
//! only be a viable alternative if it provides faster data transfer at lower
//! cost". [`compare`] renders that verdict for a given volume, and
//! [`crossover_bandwidth`] finds the link speed at which the network starts
//! winning.

use sciflow_core::fault::{FaultPlan, RetryPolicy};
use sciflow_core::metrics::StageMetrics;
use sciflow_core::sim::FlowSim;
use sciflow_core::spec::{FlowSpec, SourceSpec, TransferSpec};
use sciflow_core::units::{DataRate, DataVolume, SimDuration};

use crate::link::NetworkLink;
use crate::shipping::{plan_shipment, MediaSpec, ShipmentPlan, ShippingRoute};

/// Which channel wins for a given transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    Network,
    Shipping,
}

/// The outcome of comparing the two channels for one volume.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferComparison {
    pub volume: DataVolume,
    /// `None` when the link cannot carry data at all.
    pub network_time: Option<SimDuration>,
    pub shipping: ShipmentPlan,
    pub winner: TransferMode,
    /// time(loser) / time(winner); `None` when the network is unusable.
    pub advantage: Option<f64>,
}

/// Compare moving `volume` over `link` against shipping it on `media` via
/// `route`. Faster channel wins; a dead link means shipping wins outright.
pub fn compare(
    volume: DataVolume,
    link: &NetworkLink,
    media: &MediaSpec,
    route: &ShippingRoute,
) -> TransferComparison {
    verdict(volume, link.transfer_time(volume), plan_shipment(volume, media, route))
}

/// A [`TransferComparison`] whose network leg was *executed* against a fault
/// plan rather than assumed perfect.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliableComparison {
    pub comparison: TransferComparison,
    /// The link stage's counters (`retries`, `faults`,
    /// `volume_retransmitted`; `blocks_failed == 1` when the leg gave up),
    /// or `None` for a dead link, which is refused before anything runs.
    pub network: Option<StageMetrics>,
}

/// The link stage of the flow [`compare_with_faults`] runs.
const LINK: &str = "link";

/// Like [`compare`], but the network time is what the link achieves through
/// `plan`'s faults under `policy`, retries and backoff included. The leg is
/// one block through a `Source → Transfer → Archive` [`FlowSim`] flow, so it
/// meets faults exactly as a `Transfer` stage of any flow does. A leg that
/// gives up (retries exhausted or timed out) tips the verdict to
/// [`TransferMode::Shipping`], as a dead link does, instead of pretending the
/// network option exists.
pub fn compare_with_faults(
    volume: DataVolume,
    link: &NetworkLink,
    plan: &FaultPlan,
    policy: RetryPolicy,
    media: &MediaSpec,
    route: &ShippingRoute,
) -> ReliableComparison {
    let shipping = plan_shipment(volume, media, route);
    if link.transfer_time(volume).is_none() {
        return ReliableComparison { comparison: verdict(volume, None, shipping), network: None };
    }
    let graph = FlowSpec::new()
        .source("data", SourceSpec::new(volume, SimDuration::ZERO, 1))
        .transfer(LINK, TransferSpec::new(link.sustained_rate()).latency(link.latency), &["data"])
        .archive("arrived", &[LINK])
        .build()
        .expect("a three-stage chain is a valid graph");
    let report = FlowSim::new(graph, vec![])
        .expect("the chain names no pools")
        .with_faults(plan.clone(), policy)
        .run()
        .expect("one block with a bounded retry budget runs to completion");
    let network = report.stage(LINK).expect("the link stage reports").clone();
    let network_time = (network.blocks_out == 1)
        .then(|| SimDuration::from_micros(network.completed_at.as_micros()));
    ReliableComparison {
        comparison: verdict(volume, network_time, shipping),
        network: Some(network),
    }
}

/// The faster channel and by how much; no network time means shipping.
fn verdict(
    volume: DataVolume,
    network_time: Option<SimDuration>,
    shipping: ShipmentPlan,
) -> TransferComparison {
    let ship = shipping.total_time;
    let ratio = |slow: SimDuration, fast: SimDuration| {
        slow.as_secs_f64() / fast.as_secs_f64().max(f64::MIN_POSITIVE)
    };
    let (winner, advantage) = match network_time {
        None => (TransferMode::Shipping, None),
        Some(net) if net <= ship => (TransferMode::Network, Some(ratio(ship, net))),
        Some(net) => (TransferMode::Shipping, Some(ratio(net, ship))),
    };
    TransferComparison { volume, network_time, shipping, winner, advantage }
}

/// The minimum sustained link rate at which the network matches the shipping
/// plan for `volume`. Returns `None` if shipping completes within the link
/// latency alone (no finite bandwidth can win).
pub fn crossover_bandwidth(
    volume: DataVolume,
    media: &MediaSpec,
    route: &ShippingRoute,
    link_latency: SimDuration,
) -> Option<DataRate> {
    let ship = plan_shipment(volume, media, route).total_time;
    let budget = ship.as_secs_f64() - link_latency.as_secs_f64();
    if budget <= 0.0 {
        return None;
    }
    Some(DataRate::from_bytes_per_sec(volume.bytes() as f64 / budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{arecibo_to_ctc as route, ata_disk};
    use sciflow_core::fault::{FaultEvent, FaultKind, FaultProfile};
    use sciflow_core::units::SimTime;

    #[test]
    fn slow_uplink_loses_to_disks_for_arecibo_volumes() {
        // A few Mb/s of effective off-island bandwidth vs 10 TB sessions.
        let uplink = NetworkLink::new(
            "arecibo-uplink",
            DataRate::mbit_per_sec(10.0),
            SimDuration::from_micros(80_000),
        )
        .with_efficiency(0.5);
        let c = compare(DataVolume::tb(10), &uplink, &ata_disk(), &route());
        assert_eq!(c.winner, TransferMode::Shipping);
        // 10 TB at 0.625 MB/s ≈ 185 days vs ~6 days shipped.
        assert!(c.advantage.unwrap() > 10.0);
    }

    #[test]
    fn fast_dedicated_link_wins() {
        let internet2 = NetworkLink::new(
            "internet2",
            DataRate::mbit_per_sec(500.0),
            SimDuration::from_micros(35_000),
        );
        let c = compare(DataVolume::tb(10), &internet2, &ata_disk(), &route());
        assert_eq!(c.winner, TransferMode::Network);
    }

    #[test]
    fn dead_link_means_shipping() {
        let down = NetworkLink::new("down", DataRate::ZERO, SimDuration::ZERO);
        let c = compare(DataVolume::tb(1), &down, &ata_disk(), &route());
        assert_eq!(c.winner, TransferMode::Shipping);
        assert!(c.advantage.is_none());
        assert!(c.network_time.is_none());
    }

    #[test]
    fn crossover_sits_between_win_and_loss() {
        let volume = DataVolume::tb(10);
        let cross = crossover_bandwidth(volume, &ata_disk(), &route(), SimDuration::ZERO).unwrap();

        let below = NetworkLink::new("below", cross * 0.8, SimDuration::ZERO);
        assert_eq!(compare(volume, &below, &ata_disk(), &route()).winner, TransferMode::Shipping);

        let above = NetworkLink::new("above", cross * 1.2, SimDuration::ZERO);
        assert_eq!(compare(volume, &above, &ata_disk(), &route()).winner, TransferMode::Network);
    }

    #[test]
    fn crossover_none_when_shipping_beats_latency() {
        let instant_route = ShippingRoute {
            name: "same-building".into(),
            transit: SimDuration::from_secs(1),
            handling: SimDuration::ZERO,
            personnel_hours_per_shipment: 0.1,
            units_per_shipment: 1,
        };
        // Link latency alone exceeds the shipping time for tiny volumes.
        let media = MediaSpec::new(
            "usb",
            DataVolume::gb(100),
            DataRate::mb_per_sec(1e9),
            DataRate::mb_per_sec(1e9),
        );
        let cross = crossover_bandwidth(
            DataVolume::from_bytes(1),
            &media,
            &instant_route,
            SimDuration::from_secs(10),
        );
        assert!(cross.is_none());
    }

    /// 100 MB/s with 1 s of latency: 1 GB takes 11 s.
    fn test_link() -> NetworkLink {
        NetworkLink::new("test-link", DataRate::mb_per_sec(100.0), SimDuration::from_secs(1))
    }

    fn leg(volume: DataVolume, plan: &FaultPlan, policy: RetryPolicy) -> ReliableComparison {
        compare_with_faults(volume, &test_link(), plan, policy, &ata_disk(), &route())
    }

    /// One `kind` event 5 s into the 11 s a gigabyte takes.
    fn once(kind: FaultKind) -> FaultPlan {
        FaultPlan::from_events(7, vec![FaultEvent { at: SimTime::from_micros(5_000_000), kind }])
    }

    /// One `kind` event every `every` for as long as any test here runs.
    fn every(every: SimDuration, kind: FaultKind) -> FaultPlan {
        let events = (0..10_000u64)
            .map(|i| FaultEvent { at: SimTime::ZERO + every * i, kind: kind.clone() })
            .collect();
        FaultPlan::from_events(3, events)
    }

    /// `max_retries` retries after backoffs of a second or two.
    fn quick(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(2),
            ..RetryPolicy::default()
        }
    }

    fn gave_up(r: &ReliableComparison) -> &StageMetrics {
        assert_eq!(r.comparison.network_time, None);
        assert_eq!(r.comparison.winner, TransferMode::Shipping);
        let network = r.network.as_ref().expect("a live link runs the leg");
        assert_eq!((network.blocks_out, network.blocks_failed), (0, 1));
        network
    }

    #[test]
    fn clean_plan_delivers_first_try() {
        let payload = DataVolume::gb(1);
        let r = leg(payload, &FaultPlan::none(), RetryPolicy::default());
        assert_eq!(r.comparison.network_time, Some(SimDuration::from_secs(11)));
        assert_eq!(r.comparison.winner, TransferMode::Network);
        let network = r.network.expect("a live link runs the leg");
        assert_eq!((network.blocks_out, network.volume_out), (1, payload));
        assert_eq!((network.retries, network.faults), (0, 0));
        assert_eq!(network.volume_retransmitted, DataVolume::ZERO);
    }

    #[test]
    fn drop_forces_retry_and_bills_retransmission() {
        // A drop 5 s into a transfer that needs 11 s: the whole block is sent
        // again after a backoff.
        let payload = DataVolume::gb(1);
        let r = leg(payload, &once(FaultKind::Drop), RetryPolicy::default());
        let network = r.network.expect("a live link runs the leg");
        assert_eq!((network.blocks_out, network.retries, network.faults), (1, 1, 1));
        assert_eq!(network.volume_retransmitted, payload);
        assert!(r.comparison.network_time.expect("delivered") > SimDuration::from_secs(16));
    }

    #[test]
    fn corrupted_attempt_bills_full_payload_exactly_once() {
        // Corruption 5 s into an 11 s transfer: the integrity check only
        // catches it at the end, so the whole payload crossed the wire and
        // appears in the retransmission bill exactly once.
        let payload = DataVolume::gb(1);
        let r = leg(payload, &once(FaultKind::Corrupt), RetryPolicy::default());
        let network = r.network.expect("a live link runs the leg");
        assert_eq!((network.blocks_out, network.retries), (1, 1));
        assert_eq!(network.volume_retransmitted, payload);
        assert_eq!(network.volume_out, payload);
    }

    #[test]
    fn corruption_on_the_final_attempt_still_counts_in_the_bill() {
        // Every attempt window holds a Corrupt event, so the retry budget
        // runs out on a corrupted attempt, whose payload also crossed the
        // wire: three attempts, three payloads billed.
        let payload = DataVolume::gb(1);
        let r = leg(payload, &every(SimDuration::from_secs(5), FaultKind::Corrupt), quick(2));
        let network = gave_up(&r);
        assert_eq!(network.retries, 2);
        assert_eq!(network.volume_retransmitted, payload * 3);
        assert_eq!(network.volume_lost, payload);
    }

    #[test]
    fn faulted_dead_link_goes_to_shipping() {
        let down = NetworkLink::new("down", DataRate::ZERO, SimDuration::ZERO);
        let plan = FaultPlan::generate(5, SimDuration::from_days(7), &FaultProfile::flaky());
        let r = compare_with_faults(
            DataVolume::gb(1),
            &down,
            &plan,
            RetryPolicy::default(),
            &ata_disk(),
            &route(),
        );
        assert_eq!(r.comparison.winner, TransferMode::Shipping);
        assert_eq!((r.comparison.network_time, r.comparison.advantage), (None, None));
        assert_eq!(r.network, None);
    }

    #[test]
    fn persistent_timeout_gives_up() {
        // Every attempt stalls for an hour; the timeout is five minutes.
        let plan = every(
            SimDuration::from_mins(10),
            FaultKind::Stall { duration: SimDuration::from_hours(1) },
        );
        let policy = RetryPolicy {
            max_retries: 2,
            attempt_timeout: Some(SimDuration::from_mins(5)),
            ..RetryPolicy::default()
        };
        let r = leg(DataVolume::gb(30), &plan, policy);
        assert_eq!(gave_up(&r).retries, 2, "max_retries + 1 attempts, then give up");
    }

    #[test]
    fn relentless_drops_exhaust_the_retries() {
        // A drop every ten seconds; a 1 GB transfer needs 11 s.
        let payload = DataVolume::gb(1);
        let r = leg(payload, &every(SimDuration::from_secs(10), FaultKind::Drop), quick(3));
        let network = gave_up(&r);
        assert_eq!(network.retries, 3);
        // A dropped final attempt is not resent, so it is not billed.
        assert_eq!(network.volume_retransmitted, payload * 3);
    }

    #[test]
    fn replay_is_byte_identical() {
        let plan = FaultPlan::generate(42, SimDuration::from_days(7), &FaultProfile::flaky());
        // 5 TB is 14 h on the link: long enough to meet the plan's faults.
        let a = leg(DataVolume::tb(5), &plan, RetryPolicy::default());
        assert_eq!(a, leg(DataVolume::tb(5), &plan, RetryPolicy::default()));
        assert!(a.network.expect("live link").faults > 0, "the plan must perturb the leg");
    }
}
