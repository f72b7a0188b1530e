//! Canonical link, media and route profiles from the paper's 2005/2006
//! infrastructure. Values are the paper's where stated, and conservative
//! period-appropriate estimates where it is silent.

use sciflow_core::units::{DataRate, DataVolume, SimDuration};

use crate::link::NetworkLink;
use crate::shipping::{MediaSpec, ShippingRoute};

/// Arecibo's off-island connectivity: "limited network bandwidth to the
/// outside world ... network transport of raw data is infeasible". A shared
/// ~10 Mb/s commodity path is a generous estimate for 2005.
pub fn arecibo_uplink() -> NetworkLink {
    NetworkLink::new(
        "arecibo-uplink",
        DataRate::mbit_per_sec(10.0),
        SimDuration::from_micros(80_000),
    )
    .with_efficiency(0.5)
}

/// The dedicated 100 Mb/s Internet Archive → Internet2 connection.
pub fn internet2_100() -> NetworkLink {
    NetworkLink::new(
        "internet2-100",
        DataRate::mbit_per_sec(100.0),
        SimDuration::from_micros(35_000),
    )
    .with_efficiency(0.9)
}

/// TeraGrid backbone access (the Cornell connection "will move to the
/// TeraGrid early in 2006"): multi-gigabit.
pub fn teragrid() -> NetworkLink {
    NetworkLink::new("teragrid", DataRate::mbit_per_sec(10_000.0), SimDuration::from_micros(30_000))
        .with_efficiency(0.8)
}

/// The ATA disks used for Arecibo raw data (2005-era 400 GB drives).
pub fn ata_disk() -> MediaSpec {
    MediaSpec::new(
        "ATA-400GB",
        DataVolume::gb(400),
        DataRate::mb_per_sec(50.0),
        DataRate::mb_per_sec(60.0),
    )
}

/// The USB drives CLEO ships Monte-Carlo data on.
pub fn usb_disk() -> MediaSpec {
    MediaSpec::new(
        "USB-250GB",
        DataVolume::gb(250),
        DataRate::mb_per_sec(25.0),
        DataRate::mb_per_sec(30.0),
    )
}

/// Courier from the Arecibo Observatory (Puerto Rico) to the Cornell Theory
/// Center (Ithaca, NY).
pub fn arecibo_to_ctc() -> ShippingRoute {
    ShippingRoute {
        name: "Arecibo→CTC".into(),
        transit: SimDuration::from_days(3),
        handling: SimDuration::from_hours(4),
        personnel_hours_per_shipment: 6.0,
        units_per_shipment: 20,
    }
}

/// Domestic shipping from an offsite Monte-Carlo farm to Cornell.
pub fn mc_farm_to_cornell() -> ShippingRoute {
    ShippingRoute {
        name: "MC-farm→Cornell".into(),
        transit: SimDuration::from_days(2),
        handling: SimDuration::from_hours(1),
        personnel_hours_per_shipment: 2.0,
        units_per_shipment: 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::{compare, TransferMode};

    #[test]
    fn paper_verdicts_hold_under_profiles() {
        // Arecibo: shipping wins for a 10 TB observing session.
        let c = compare(DataVolume::tb(10), &arecibo_uplink(), &ata_disk(), &arecibo_to_ctc());
        assert_eq!(c.winner, TransferMode::Shipping);

        // WebLab on TeraGrid: network wins the same volume.
        let c = compare(DataVolume::tb(10), &teragrid(), &ata_disk(), &arecibo_to_ctc());
        assert_eq!(c.winner, TransferMode::Network);
    }

    #[test]
    fn profiles_have_positive_rates() {
        for link in [arecibo_uplink(), internet2_100(), teragrid()] {
            assert!(link.sustained_rate().bytes_per_sec() > 0.0, "{}", link.name);
        }
        for media in [ata_disk(), usb_disk()] {
            assert!(media.unit_capacity > DataVolume::ZERO, "{}", media.name);
        }
    }
}
