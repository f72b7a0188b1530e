//! Physical media shipping — the "sneakernet" channel.
//!
//! "Because of Arecibo's limited network bandwidth to the outside world, for
//! the foreseeable future, network transport of raw data is infeasible. We
//! therefore have developed a system based on transport of physical ATA
//! disks." CLEO likewise ships Monte-Carlo data to Cornell "on USB disks".
//! The paper lists the real costs of this channel: "personnel requirements;
//! assessment and maintenance of data integrity; tracking and logging;
//! ensuring no data loss". This module models all of them.

use sciflow_core::units::{DataRate, DataVolume, SimDuration};

/// The kind of unit being shipped.
#[derive(Debug, Clone)]
pub struct MediaSpec {
    pub name: String,
    /// Capacity of one unit (one ATA disk, one USB drive).
    pub unit_capacity: DataVolume,
    /// Rate at which a unit is filled at the source.
    pub load_rate: DataRate,
    /// Rate at which a unit is read back at the destination.
    pub unload_rate: DataRate,
}

impl MediaSpec {
    pub fn new(
        name: impl Into<String>,
        unit_capacity: DataVolume,
        load_rate: DataRate,
        unload_rate: DataRate,
    ) -> Self {
        MediaSpec { name: name.into(), unit_capacity, load_rate, unload_rate }
    }
}

/// A shipping route between two sites.
#[derive(Debug, Clone)]
pub struct ShippingRoute {
    pub name: String,
    /// Courier door-to-door time per shipment.
    pub transit: SimDuration,
    /// Fixed handling time per shipment (packing, labelling, check-in).
    pub handling: SimDuration,
    /// Human effort per shipment, in hours (the "personnel requirements").
    pub personnel_hours_per_shipment: f64,
    /// How many units fit in one shipment crate.
    pub units_per_shipment: usize,
}

/// A concrete plan to move `volume` by shipping media.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipmentPlan {
    pub units: usize,
    pub shipments: usize,
    /// Loading at source (parallel per unit is not assumed: one writer).
    pub load_time: SimDuration,
    /// Transit of the last shipment (shipments pipeline behind loading).
    pub transit_time: SimDuration,
    pub unload_time: SimDuration,
    pub total_time: SimDuration,
    pub personnel_hours: f64,
}

impl ShipmentPlan {
    /// Effective end-to-end rate achieved by the plan.
    pub fn effective_rate(&self, volume: DataVolume) -> DataRate {
        let secs = self.total_time.as_secs_f64();
        if secs == 0.0 {
            DataRate::ZERO
        } else {
            DataRate::from_bytes_per_sec(volume.bytes() as f64 / secs)
        }
    }
}

/// Plan shipping `volume` using `media` over `route`.
///
/// The model is the conservative serial pipeline the paper describes: fill
/// units at the telescope, pack a crate, courier it, read it back at the
/// archive. Loading and unloading are charged in full; transit is charged
/// once (shipments overlap loading of the next batch).
pub fn plan_shipment(volume: DataVolume, media: &MediaSpec, route: &ShippingRoute) -> ShipmentPlan {
    assert!(route.units_per_shipment > 0, "shipment must hold at least one unit");
    let unit_bytes = media.unit_capacity.bytes().max(1);
    let units = volume.bytes().div_ceil(unit_bytes) as usize;
    let shipments = units.div_ceil(route.units_per_shipment).max(1);
    let load_time = volume.time_at(media.load_rate).unwrap_or(SimDuration::ZERO);
    let unload_time = volume.time_at(media.unload_rate).unwrap_or(SimDuration::ZERO);
    let transit_time = route.transit + route.handling;
    let total_time = load_time + transit_time + unload_time;
    ShipmentPlan {
        units,
        shipments,
        load_time,
        transit_time,
        unload_time,
        total_time,
        personnel_hours: shipments as f64 * route.personnel_hours_per_shipment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{arecibo_to_ctc, ata_disk};

    #[test]
    fn arecibo_weekly_block() {
        // One week of ALFA data: 14 TB → 35 disks → 2 shipments.
        let plan = plan_shipment(DataVolume::tb(14), &ata_disk(), &arecibo_to_ctc());
        assert_eq!(plan.units, 35);
        assert_eq!(plan.shipments, 2);
        assert_eq!(plan.personnel_hours, 12.0);
        // Loading 14 TB at 50 MB/s ≈ 3.2 days; total well under two weeks.
        assert!(plan.total_time.as_days_f64() > 3.0);
        assert!(plan.total_time.as_days_f64() < 14.0);
        // Effective rate beats any sub-10 Mb/s uplink by a wide margin.
        let rate = plan.effective_rate(DataVolume::tb(14));
        assert!(rate.as_tb_per_day() > 1.0, "got {rate}");
    }

    #[test]
    fn tiny_volume_single_unit() {
        let plan = plan_shipment(DataVolume::gb(1), &ata_disk(), &arecibo_to_ctc());
        assert_eq!(plan.units, 1);
        assert_eq!(plan.shipments, 1);
        // Dominated by transit.
        assert!(plan.total_time.as_days_f64() > 3.0);
    }

    #[test]
    fn exact_multiple_of_unit_capacity() {
        let plan = plan_shipment(DataVolume::gb(800), &ata_disk(), &arecibo_to_ctc());
        assert_eq!(plan.units, 2);
    }

    #[test]
    fn zero_volume_still_one_shipment_if_requested() {
        let plan = plan_shipment(DataVolume::ZERO, &ata_disk(), &arecibo_to_ctc());
        assert_eq!(plan.units, 0);
        assert_eq!(plan.shipments, 1);
        assert!(plan.total_time >= arecibo_to_ctc().transit);
    }
}
