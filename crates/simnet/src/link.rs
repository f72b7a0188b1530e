//! Network link model.
//!
//! WebLab's transfer plan is the motivating configuration: "the network
//! connection uses a dedicated 100 Mb/sec connection from the Internet
//! Archive to Internet2, which can easily be upgraded to 500 Mb/sec", sized
//! against "an initial target of downloading one complete crawl of the Web
//! for each year since 1996 at an average speed of 250 GB/day".

use sciflow_core::units::{DataRate, DataVolume, SimDuration};

/// A point-to-point network link.
#[derive(Debug, Clone)]
pub struct NetworkLink {
    pub name: String,
    /// Raw line rate.
    pub bandwidth: DataRate,
    /// Propagation + connection setup latency per transfer.
    pub latency: SimDuration,
    /// Fraction of the line rate achievable in sustained bulk transfer
    /// (protocol overhead, competing traffic). 1.0 = fully dedicated.
    pub efficiency: f64,
}

impl NetworkLink {
    pub fn new(name: impl Into<String>, bandwidth: DataRate, latency: SimDuration) -> Self {
        NetworkLink { name: name.into(), bandwidth, latency, efficiency: 1.0 }
    }

    /// Derate the link for shared/overheaded use.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        assert!((0.0..=1.0).contains(&efficiency), "efficiency must be in [0, 1]");
        self.efficiency = efficiency;
        self
    }

    /// The sustained goodput.
    pub fn sustained_rate(&self) -> DataRate {
        self.bandwidth * self.efficiency
    }

    /// Time to move `volume` over the link, or `None` if the link cannot
    /// carry data at all.
    pub fn transfer_time(&self, volume: DataVolume) -> Option<SimDuration> {
        volume.time_at(self.sustained_rate()).map(|t| t + self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weblab_link_meets_250gb_per_day() {
        let link = NetworkLink::new(
            "ia-to-internet2",
            DataRate::mbit_per_sec(100.0),
            SimDuration::from_micros(35_000),
        );
        // 100 Mb/s = 12.5 MB/s ≈ 1.08 TB/day raw.
        assert!(link.sustained_rate().over(SimDuration::from_days(1)) > DataVolume::gb(1000));
        let u = DataRate::tb_per_day(0.25).bytes_per_sec() / link.sustained_rate().bytes_per_sec();
        assert!(u > 0.2 && u < 0.3, "250 GB/day should use ~23% of the link, got {u}");
    }

    #[test]
    fn efficiency_derates() {
        let link = NetworkLink::new("shared", DataRate::mbit_per_sec(100.0), SimDuration::ZERO)
            .with_efficiency(0.5);
        assert!((link.sustained_rate().bytes_per_sec() - 6_250_000.0).abs() < 1.0);
        let t = link.transfer_time(DataVolume::gb(1)).unwrap();
        assert!((t.as_secs_f64() - 160.0).abs() < 1.0);
    }

    #[test]
    fn zero_bandwidth_cannot_transfer() {
        let link = NetworkLink::new("down", DataRate::ZERO, SimDuration::ZERO);
        assert!(link.transfer_time(DataVolume::gb(1)).is_none());
    }

    #[test]
    fn latency_included_once() {
        let link = NetworkLink::new("lan", DataRate::mb_per_sec(100.0), SimDuration::from_secs(1));
        let t = link.transfer_time(DataVolume::mb(100)).unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn efficiency_out_of_range_panics() {
        let _ = NetworkLink::new("x", DataRate::ZERO, SimDuration::ZERO).with_efficiency(1.5);
    }
}
