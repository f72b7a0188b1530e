//! Versioning of data products.
//!
//! The paper (Section 3.2) describes CLEO version identifiers such as
//! `Recon Feb13_04_P2`: the processing step, the software release that
//! produced the data, and "the date of the most recent change to the software
//! or inputs ... that might affect the results". Arecibo plans the same
//! scheme ("we will tag all data products with a version number indicating
//! processing code and processing site"). This module provides those types
//! for all three case studies.

use std::cmp::Ordering;
use std::fmt;

/// A calendar date, used for version effective dates and analysis timestamps.
///
/// EventStore snapshot resolution works on dates ("a physicist will usually
/// specify ... the date the analysis project started"), so day granularity is
/// what the system actually needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CalDate {
    pub year: u16,
    pub month: u8,
    pub day: u8,
}

impl CalDate {
    /// Construct a date, validating month/day ranges (days-per-month checked,
    /// including leap years).
    pub fn new(year: u16, month: u8, day: u8) -> Option<CalDate> {
        if !(1..=12).contains(&month) || day == 0 {
            return None;
        }
        let leap =
            (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400);
        let days_in_month = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if leap => 29,
            2 => 28,
            _ => unreachable!(),
        };
        if day > days_in_month {
            return None;
        }
        Some(CalDate { year, month, day })
    }

    /// Parse a compact `YYYYMMDD` string, the form used in EventStore
    /// analysis timestamps (e.g. `20040312`).
    pub fn parse_compact(s: &str) -> Option<CalDate> {
        if s.len() != 8 || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let year: u16 = s[0..4].parse().ok()?;
        let month: u8 = s[4..6].parse().ok()?;
        let day: u8 = s[6..8].parse().ok()?;
        CalDate::new(year, month, day)
    }

    /// A sortable integer key (`YYYYMMDD`).
    pub fn as_key(self) -> u32 {
        self.year as u32 * 10_000 + self.month as u32 * 100 + self.day as u32
    }

    /// Days since 0000-03-01, for day arithmetic (civil-calendar algorithm).
    pub fn day_number(self) -> i64 {
        let y = if self.month <= 2 { self.year as i64 - 1 } else { self.year as i64 };
        let era = y.div_euclid(400);
        let yoe = y - era * 400;
        let mp = (self.month as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe
    }

    /// Whole days from `self` to `other` (positive if `other` is later).
    pub fn days_until(self, other: CalDate) -> i64 {
        other.day_number() - self.day_number()
    }
}

impl PartialOrd for CalDate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CalDate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_key().cmp(&other.as_key())
    }
}

impl fmt::Display for CalDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Identifies the exact processing that produced a data product.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionId {
    /// The processing step, e.g. `Recon`, `PostRecon`, `Dedisp`, `Preload`.
    pub step: String,
    /// The software release that ran, e.g. `Feb13_04_P2`.
    pub release: String,
    /// Date of the most recent change to the software or its inputs
    /// (calibration data, channel masks, ...) that might affect results.
    pub effective: CalDate,
    /// Where the processing ran; Arecibo tags "processing code and
    /// processing site" because consortium members process independently.
    pub site: String,
}

impl VersionId {
    pub fn new(
        step: impl Into<String>,
        release: impl Into<String>,
        effective: CalDate,
        site: impl Into<String>,
    ) -> Self {
        VersionId { step: step.into(), release: release.into(), effective, site: site.into() }
    }

    /// The canonical label, matching the paper's `Recon Feb13_04_P2` style.
    pub fn label(&self) -> String {
        format!("{} {}", self.step, self.release)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({} @ {})", self.step, self.release, self.effective, self.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(CalDate::new(2004, 2, 29).is_some()); // leap year
        assert!(CalDate::new(2005, 2, 29).is_none());
        assert!(CalDate::new(2000, 2, 29).is_some()); // 400-year rule
        assert!(CalDate::new(1900, 2, 29).is_none()); // 100-year rule
        assert!(CalDate::new(2004, 13, 1).is_none());
        assert!(CalDate::new(2004, 4, 31).is_none());
        assert!(CalDate::new(2004, 1, 0).is_none());
    }

    #[test]
    fn compact_parse() {
        let d = CalDate::parse_compact("20040312").unwrap();
        assert_eq!((d.year, d.month, d.day), (2004, 3, 12));
        assert!(CalDate::parse_compact("2004031").is_none());
        assert!(CalDate::parse_compact("200403xx").is_none());
        assert!(CalDate::parse_compact("20041332").is_none());
    }

    #[test]
    fn date_ordering() {
        let a = CalDate::parse_compact("20040213").unwrap();
        let b = CalDate::parse_compact("20040312").unwrap();
        assert!(a < b);
        assert_eq!(a.days_until(b), 28);
        assert_eq!(b.days_until(a), -28);
    }

    #[test]
    fn day_number_consistency() {
        // Consecutive days differ by one across a leap-month boundary.
        let feb28 = CalDate::new(2004, 2, 28).unwrap();
        let feb29 = CalDate::new(2004, 2, 29).unwrap();
        let mar1 = CalDate::new(2004, 3, 1).unwrap();
        assert_eq!(feb28.days_until(feb29), 1);
        assert_eq!(feb29.days_until(mar1), 1);
    }

    #[test]
    fn version_label_matches_paper_style() {
        let v = VersionId::new(
            "Recon",
            "Feb13_04_P2",
            CalDate::parse_compact("20040312").unwrap(),
            "Cornell",
        );
        assert_eq!(v.label(), "Recon Feb13_04_P2");
    }
}
