//! Property-based tests for transport planning: monotonicity of shipping
//! plans, crossover correctness, and link derating.

use sciflow_core::units::{DataRate, DataVolume, SimDuration};
use sciflow_simnet::link::NetworkLink;
use sciflow_simnet::shipping::{plan_shipment, MediaSpec, ShippingRoute};
use sciflow_simnet::transfer::{compare, crossover_bandwidth, TransferMode};
use sciflow_testkit::check;

fn media(cap_gb: u64, rate_mb: f64) -> MediaSpec {
    MediaSpec::new(
        "disk",
        DataVolume::gb(cap_gb),
        DataRate::mb_per_sec(rate_mb),
        DataRate::mb_per_sec(rate_mb * 1.2),
    )
}

fn route(transit_hours: u64, per_crate: usize) -> ShippingRoute {
    ShippingRoute {
        name: "r".into(),
        transit: SimDuration::from_hours(transit_hours),
        handling: SimDuration::from_hours(1),
        personnel_hours_per_shipment: 2.0,
        units_per_shipment: per_crate,
    }
}

/// More data never ships faster, and unit counts are exact ceilings.
#[test]
fn shipping_time_is_monotone_in_volume() {
    check("shipping_time_is_monotone_in_volume", 64, |g| {
        let (gb1, gb2) = (g.range(1u64..5000), g.range(1u64..5000));
        let (cap, rate) = (g.range(100u64..800), g.range(10.0f64..100.0));
        let (transit, per_crate) = (g.range(1u64..120), g.range(1usize..40));
        let m = media(cap, rate);
        let r = route(transit, per_crate);
        let (lo, hi) = (gb1.min(gb2), gb1.max(gb2));
        let plan_lo = plan_shipment(DataVolume::gb(lo), &m, &r);
        let plan_hi = plan_shipment(DataVolume::gb(hi), &m, &r);
        assert!(plan_hi.total_time >= plan_lo.total_time);
        assert_eq!(plan_lo.units as u64, lo.div_ceil(cap));
        assert!(plan_lo.shipments >= 1);
        assert!(plan_lo.personnel_hours > 0.0);
    });
}

/// The crossover bandwidth really is the tipping point: slightly below
/// it shipping wins, slightly above the network wins.
#[test]
fn crossover_separates_the_regimes() {
    check("crossover_separates_the_regimes", 64, |g| {
        let (gb, cap) = (g.range(100u64..20_000), g.range(100u64..800));
        let (rate, transit) = (g.range(10.0f64..100.0), g.range(12u64..120));
        let m = media(cap, rate);
        let r = route(transit, 20);
        let volume = DataVolume::gb(gb);
        let cross = crossover_bandwidth(volume, &m, &r, SimDuration::ZERO)
            .expect("shipping takes finite time");
        let below = NetworkLink::new("b", cross * 0.9, SimDuration::ZERO);
        let above = NetworkLink::new("a", cross * 1.1, SimDuration::ZERO);
        assert_eq!(compare(volume, &below, &m, &r).winner, TransferMode::Shipping);
        assert_eq!(compare(volume, &above, &m, &r).winner, TransferMode::Network);
    });
}

/// Link algebra: transfer time scales inversely with efficiency, and
/// daily capacity matches the sustained rate.
#[test]
fn link_derating_scales_transfer_time() {
    check("link_derating_scales_transfer_time", 64, |g| {
        let (mbit, gb, eff_pct) =
            (g.range(1.0f64..10_000.0), g.range(1u64..1000), g.range(10u32..100));
        let eff = eff_pct as f64 / 100.0;
        let full = NetworkLink::new("f", DataRate::mbit_per_sec(mbit), SimDuration::ZERO);
        let derated = full.clone().with_efficiency(eff);
        let v = DataVolume::gb(gb);
        let t_full = full.transfer_time(v).expect("live link").as_secs_f64();
        let t_der = derated.transfer_time(v).expect("live link").as_secs_f64();
        assert!((t_der * eff - t_full).abs() < t_full * 0.01 + 1e-3, "{t_der} * {eff} vs {t_full}");
    });
}
