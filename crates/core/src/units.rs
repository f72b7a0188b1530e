//! Physical units used throughout the workspace: data volumes, data rates,
//! and simulated time.
//!
//! All three case studies in the paper are described in terms of volumes
//! (terabytes per observing block, petabytes per survey), rates (megabits per
//! second of network link, megabytes per second to tape) and durations
//! (45–60 minute runs, 3-hour observing sessions, five-year surveys). Getting
//! these newtypes right once avoids unit bugs everywhere else.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

crate::wire_struct! {
    /// A volume of data, stored in bytes.
    ///
    /// Uses binary prefixes (1 KiB = 1024 B) internally but offers decimal
    /// constructors too, since the paper mixes both conventions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct DataVolume(u64);
}

impl DataVolume {
    pub const ZERO: DataVolume = DataVolume(0);

    pub const fn from_bytes(bytes: u64) -> Self {
        DataVolume(bytes)
    }

    pub const fn kib(n: u64) -> Self {
        DataVolume(n * 1024)
    }

    pub const fn mib(n: u64) -> Self {
        DataVolume(n * 1024 * 1024)
    }

    pub const fn gib(n: u64) -> Self {
        DataVolume(n * 1024 * 1024 * 1024)
    }

    /// Decimal megabytes (10^6), as used for link and tape rates in the paper.
    pub const fn mb(n: u64) -> Self {
        DataVolume(n * 1_000_000)
    }

    /// Decimal gigabytes (10^9).
    pub const fn gb(n: u64) -> Self {
        DataVolume(n * 1_000_000_000)
    }

    /// Decimal terabytes (10^12).
    pub const fn tb(n: u64) -> Self {
        DataVolume(n * 1_000_000_000_000)
    }

    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Scale by a dimensionless ratio, rounding to the nearest byte.
    ///
    /// Used for output-volume ratios ("data products are one to a few percent
    /// the size of the raw data").
    pub fn scale(self, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "volume ratio must be non-negative");
        DataVolume((self.0 as f64 * ratio).round() as u64)
    }

    pub fn saturating_sub(self, other: Self) -> Self {
        DataVolume(self.0.saturating_sub(other.0))
    }

    pub fn min(self, other: Self) -> Self {
        DataVolume(self.0.min(other.0))
    }

    pub fn max(self, other: Self) -> Self {
        DataVolume(self.0.max(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to move this volume at `rate`. Returns `None` for a zero rate.
    pub fn time_at(self, rate: DataRate) -> Option<SimDuration> {
        if rate.bytes_per_sec() <= 0.0 {
            return None;
        }
        let secs = self.0 as f64 / rate.bytes_per_sec();
        Some(SimDuration::from_secs_f64(secs))
    }
}

impl Add for DataVolume {
    type Output = DataVolume;
    fn add(self, rhs: Self) -> Self {
        DataVolume(self.0 + rhs.0)
    }
}

impl AddAssign for DataVolume {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for DataVolume {
    type Output = DataVolume;
    fn sub(self, rhs: Self) -> Self {
        DataVolume(self.0 - rhs.0)
    }
}

impl SubAssign for DataVolume {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for DataVolume {
    type Output = DataVolume;
    fn mul(self, rhs: u64) -> Self {
        DataVolume(self.0 * rhs)
    }
}

impl Div<u64> for DataVolume {
    type Output = DataVolume;
    fn div(self, rhs: u64) -> Self {
        DataVolume(self.0 / rhs)
    }
}

impl Sum for DataVolume {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(DataVolume::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for DataVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        const TIB: f64 = GIB * 1024.0;
        const PIB: f64 = TIB * 1024.0;
        if b >= PIB {
            write!(f, "{:.2} PiB", b / PIB)
        } else if b >= TIB {
            write!(f, "{:.2} TiB", b / TIB)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DataRate(f64);

impl DataRate {
    pub const ZERO: DataRate = DataRate(0.0);

    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps >= 0.0 && bps.is_finite(), "rate must be finite and >= 0");
        DataRate(bps)
    }

    /// Network-style megabits per second (10^6 bits).
    pub fn mbit_per_sec(mbit: f64) -> Self {
        Self::from_bytes_per_sec(mbit * 1_000_000.0 / 8.0)
    }

    /// Decimal megabytes per second, as in "200 MB/s of data written to tape".
    pub fn mb_per_sec(mb: f64) -> Self {
        Self::from_bytes_per_sec(mb * 1_000_000.0)
    }

    pub fn gb_per_day(gb: f64) -> Self {
        Self::from_bytes_per_sec(gb * 1_000_000_000.0 / 86_400.0)
    }

    pub fn tb_per_day(tb: f64) -> Self {
        Self::from_bytes_per_sec(tb * 1_000_000_000_000.0 / 86_400.0)
    }

    /// Volume moved in `d` at this rate.
    pub fn over(self, d: SimDuration) -> DataVolume {
        DataVolume::from_bytes((self.0 * d.as_secs_f64()).round() as u64)
    }
}

impl Mul<f64> for DataRate {
    type Output = DataRate;
    fn mul(self, rhs: f64) -> DataRate {
        DataRate::from_bytes_per_sec(self.0 * rhs)
    }
}

impl Add for DataRate {
    type Output = DataRate;
    fn add(self, rhs: Self) -> DataRate {
        DataRate(self.0 + rhs.0)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} GB/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} MB/s", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2} KB/s", self.0 / 1e3)
        } else {
            write!(f, "{:.0} B/s", self.0)
        }
    }
}

crate::wire_struct! {
    /// A point in simulated time, in whole microseconds since simulation start.
    ///
    /// `u64` microseconds cover ~584,000 years, comfortably beyond the "keep the
    /// raw data indefinitely" horizons in the paper.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct SimTime(u64);
}

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    pub fn checked_sub(self, other: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

crate::wire_struct! {
    /// A span of simulated time, in whole microseconds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct SimDuration(u64);
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000)
    }

    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400 * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "duration must be finite and >= 0");
        SimDuration((s * 1e6).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    pub fn max(self, other: Self) -> Self {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: Self) -> Self {
        SimDuration(self.0.min(other.0))
    }

    pub fn saturating_sub(self, other: Self) -> Self {
        SimDuration(self.0.saturating_sub(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 86_400.0 {
            write!(f, "{:.2}d", s / 86_400.0)
        } else if s >= 3_600.0 {
            write!(f, "{:.2}h", s / 3_600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{:.3}s", s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_constructors_agree() {
        assert_eq!(DataVolume::kib(1).bytes(), 1024);
        assert_eq!(DataVolume::mib(1).bytes(), 1 << 20);
        assert_eq!(DataVolume::gib(1).bytes(), 1 << 30);
        assert_eq!(DataVolume::tb(1).bytes(), 1_000_000_000_000);
    }

    #[test]
    fn volume_arithmetic() {
        let a = DataVolume::gib(3);
        let b = DataVolume::gib(1);
        assert_eq!(a + b, DataVolume::gib(4));
        assert_eq!(a - b, DataVolume::gib(2));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(a.saturating_sub(DataVolume::gib(10)), DataVolume::ZERO);
    }

    #[test]
    fn volume_scale_rounds() {
        let raw = DataVolume::tb(14);
        // "data products one to a few percent the size of the raw data"
        let products = raw.scale(0.02);
        assert_eq!(products.bytes(), 280_000_000_000);
    }

    #[test]
    fn rate_conversions() {
        let link = DataRate::mbit_per_sec(100.0);
        assert!((link.bytes_per_sec() - 12_500_000.0).abs() < 1e-6);
        // 100 Mb/s moves ~1.08 TB/day.
        let per_day = link.over(SimDuration::from_days(1));
        assert!((per_day.bytes() as f64 / 1e12 - 1.08).abs() < 0.01);
    }

    #[test]
    fn volume_over_rate_roundtrips() {
        let v = DataVolume::gb(250);
        let r = DataRate::gb_per_day(250.0);
        let t = v.time_at(r).unwrap();
        assert!((t.as_days_f64() - 1.0).abs() < 1e-9);
        assert!(v.time_at(DataRate::ZERO).is_none());
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_hours(3);
        assert_eq!(t.as_micros(), 3 * 3_600 * 1_000_000);
        assert_eq!(
            t.checked_sub(SimTime::from_micros(1)).unwrap().as_micros(),
            3 * 3_600 * 1_000_000 - 1
        );
        assert!(SimTime::ZERO.checked_sub(t).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DataVolume::from_bytes(14 << 40)), "14.00 TiB");
        assert_eq!(format!("{}", DataVolume::from_bytes(512)), "512 B");
        assert_eq!(format!("{}", SimDuration::from_mins(90)), "1.50h");
        assert_eq!(format!("{}", DataRate::mb_per_sec(200.0)), "200.00 MB/s");
    }

    #[test]
    fn rate_over_duration() {
        let written = DataRate::mb_per_sec(200.0).over(SimDuration::from_secs(10));
        assert_eq!(written.bytes(), 2_000_000_000);
    }
}
