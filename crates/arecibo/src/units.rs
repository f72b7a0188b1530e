//! Physical quantities for the pulsar search: dispersion measures,
//! frequencies, periods, and the cold-plasma dispersion delay.

/// Dispersion constant: delay(s) = K_DM · DM · f⁻²(MHz). K_DM in
/// s · MHz² · cm³ / pc.
pub const K_DM: f64 = 4.148808e3;

/// Dispersion measure in pc/cm³ — the integrated electron column density a
/// pulse traverses; the survey dedisperses "with about 1000 different trial
/// values of the dispersion measure".
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Dm(pub f64);

impl Dm {
    /// Arrival delay at `f_mhz` relative to an infinitely high frequency.
    pub fn delay_secs(self, f_mhz: f64) -> f64 {
        assert!(f_mhz > 0.0, "frequency must be positive");
        K_DM * self.0 / (f_mhz * f_mhz)
    }

    /// Differential delay between two observing frequencies (positive when
    /// `f_lo < f_hi`: lower frequencies arrive later).
    pub fn delay_between(self, f_lo_mhz: f64, f_hi_mhz: f64) -> f64 {
        self.delay_secs(f_lo_mhz) - self.delay_secs(f_hi_mhz)
    }
}

/// A pulsar spin period in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Period(pub f64);

impl Period {
    pub fn freq_hz(self) -> f64 {
        assert!(self.0 > 0.0, "period must be positive");
        1.0 / self.0
    }
}

/// Generate the trial-DM ladder for a search. Linear spacing is what the
/// sensitivity analysis needs at L-band; `n` ≈ 1000 in the real survey.
pub fn dm_trials(dm_max: f64, n: usize) -> Vec<Dm> {
    assert!(n >= 2, "need at least two trials");
    assert!(dm_max > 0.0, "dm_max must be positive");
    (0..n).map(|i| Dm(dm_max * i as f64 / (n - 1) as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispersion_delay_magnitude() {
        // DM 100 at 1400 MHz: ≈ 0.2117 s behind infinite frequency.
        let d = Dm(100.0).delay_secs(1400.0);
        assert!((d - 0.2117).abs() < 1e-3, "{d}");
    }

    #[test]
    fn lower_frequencies_arrive_later() {
        let dm = Dm(50.0);
        assert!(dm.delay_between(1200.0, 1500.0) > 0.0);
        assert!((dm.delay_between(1400.0, 1400.0)).abs() < 1e-12);
    }

    #[test]
    fn delay_scales_linearly_with_dm() {
        let a = Dm(10.0).delay_secs(1400.0);
        let b = Dm(20.0).delay_secs(1400.0);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn period_frequency_roundtrip() {
        let f = 174.0; // a millisecond pulsar
        assert!((Period(1.0 / f).freq_hz() - f).abs() < 1e-12);
    }

    #[test]
    fn trial_ladder_covers_zero_to_max() {
        let trials = dm_trials(1000.0, 1000);
        assert_eq!(trials.len(), 1000);
        assert_eq!(trials[0].0, 0.0);
        assert_eq!(trials[999].0, 1000.0);
        assert!(trials.windows(2).all(|w| w[1].0 > w[0].0));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn trivial_ladder_rejected() {
        dm_trials(100.0, 1);
    }
}
