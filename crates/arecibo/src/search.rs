//! Periodicity search: power spectra, harmonic summing, threshold tests.
//!
//! The paper's processing chain: "... Fourier analysis, harmonic summing,
//! threshold tests to identify candidates ...". Harmonic summing recovers
//! sensitivity to narrow pulses, whose power is spread across many harmonics
//! of the spin frequency.

use crate::fft::{bin_freq_hz, real_power_spectrum};
use crate::units::Dm;

/// A periodicity candidate from one (DM, beam) search.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub dm: Dm,
    pub freq_hz: f64,
    pub period_s: f64,
    pub snr: f64,
    /// Number of harmonics summed when the candidate was strongest.
    pub harmonics: usize,
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Detection threshold in σ.
    pub threshold_snr: f64,
    /// Harmonic folds tried: 1, 2, 4, ... up to this count.
    pub max_harmonics: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { threshold_snr: 6.0, max_harmonics: 4 }
    }
}

/// Normalise a power spectrum to unit mean (white-noise bins are then
/// exponentially distributed with mean 1, so thresholds are in known units).
pub fn normalize_power(power: &mut [f64]) {
    let n = power.len() as f64;
    if n == 0.0 {
        return;
    }
    let mean = power.iter().sum::<f64>() / n;
    if mean > 0.0 {
        for p in power.iter_mut() {
            *p /= mean;
        }
    }
}

/// Sum `h` harmonics of bin `i` of a unit-mean spectrum: `P(i) + P(2i+1) +
/// ...` (bin indices are 0-based, representing frequencies `(i+1)·df`, so
/// the k-th harmonic of bin `i` is bin `k(i+1)-1`).
fn harmonic_power(power: &[f64], i: usize, h: usize) -> Option<f64> {
    let mut acc = 0.0;
    for k in 1..=h {
        let idx = k * (i + 1) - 1;
        if idx >= power.len() {
            return None;
        }
        acc += power[idx];
    }
    Some(acc)
}

/// Significance of an `h`-harmonic sum on a unit-mean exponential spectrum:
/// mean `h`, variance `h`, so z = (sum − h) / √h.
fn harmonic_sigma(sum: f64, h: usize) -> f64 {
    (sum - h as f64) / (h as f64).sqrt()
}

/// Search a dedispersed time series for periodic signals. Returns candidates
/// above threshold, strongest first, de-duplicated to local maxima.
pub fn search_series(series: &[f32], dt: f64, dm: Dm, config: &SearchConfig) -> Vec<Candidate> {
    assert!(config.max_harmonics >= 1, "need at least one harmonic");
    let n_padded = series.len().next_power_of_two();
    let mut power = real_power_spectrum(series);
    normalize_power(&mut power);

    // Best significance per bin over harmonic folds 1, 2, 4, ...
    let mut best: Vec<(f64, usize)> = vec![(f64::NEG_INFINITY, 1); power.len()];
    let mut h = 1usize;
    while h <= config.max_harmonics {
        for (i, slot) in best.iter_mut().enumerate() {
            if let Some(sum) = harmonic_power(&power, i, h) {
                let z = harmonic_sigma(sum, h);
                if z > slot.0 {
                    *slot = (z, h);
                }
            }
        }
        h *= 2;
    }

    let mut candidates = Vec::new();
    for i in 0..power.len() {
        let (z, harmonics) = best[i];
        if z < config.threshold_snr {
            continue;
        }
        // Local maximum in significance (suppress shoulder bins).
        let left = if i > 0 { best[i - 1].0 } else { f64::NEG_INFINITY };
        let right = if i + 1 < power.len() { best[i + 1].0 } else { f64::NEG_INFINITY };
        if z < left || z < right {
            continue;
        }
        let freq = bin_freq_hz(i, n_padded, dt);
        candidates.push(Candidate { dm, freq_hz: freq, period_s: 1.0 / freq, snr: z, harmonics });
    }
    candidates.sort_by(|a, b| b.snr.total_cmp(&a.snr));
    candidates
}

/// Fraction relating two frequencies modulo harmonics: true when `a` is
/// within `tol` (relative) of `b` or of one of its low-order harmonics /
/// subharmonics. Used to match candidates across beams and pointings.
pub fn harmonically_related(a_hz: f64, b_hz: f64, tol: f64) -> bool {
    assert!(a_hz > 0.0 && b_hz > 0.0, "frequencies must be positive");
    for num in 1..=4u32 {
        for den in 1..=4u32 {
            let target = b_hz * num as f64 / den as f64;
            if (a_hz - target).abs() / target <= tol {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedisperse::dedisperse;
    use crate::spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
    use sciflow_core::rng::Rng;

    fn pulsar_series(period: f64, amplitude: f32, seed: u64) -> (Vec<f32>, f64) {
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let p = PulsarParams {
            dm: Dm(60.0),
            period_s: period,
            width_s: period / 20.0,
            amplitude,
            phase_s: 0.01,
        };
        spec.inject_pulsar(&p);
        (dedisperse(&spec, p.dm), cfg.dt)
    }

    #[test]
    fn recovers_injected_period() {
        let period = 0.128; // 7.8125 Hz, bin-aligned for 4.096 s
        let (series, dt) = pulsar_series(period, 5.0, 11);
        let cands = search_series(&series, dt, Dm(60.0), &SearchConfig::default());
        assert!(!cands.is_empty(), "no candidates found");
        let top = &cands[0];
        assert!(
            harmonically_related(top.freq_hz, 1.0 / period, 0.02),
            "top candidate {} Hz not related to {} Hz",
            top.freq_hz,
            1.0 / period
        );
        assert!(top.snr > 6.0);
    }

    #[test]
    fn narrow_pulses_need_harmonic_summing() {
        // A very narrow pulse spreads power over many harmonics.
        let period = 0.256;
        let mut rng = Rng::seed_from_u64(5);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        spec.inject_pulsar(&PulsarParams {
            dm: Dm(60.0),
            period_s: period,
            width_s: period / 60.0, // duty cycle < 2%
            amplitude: 4.0,
            phase_s: 0.0,
        });
        let series = dedisperse(&spec, Dm(60.0));
        let single = search_series(
            &series,
            cfg.dt,
            Dm(60.0),
            &SearchConfig { threshold_snr: 3.0, max_harmonics: 1 },
        );
        let summed = search_series(
            &series,
            cfg.dt,
            Dm(60.0),
            &SearchConfig { threshold_snr: 3.0, max_harmonics: 8 },
        );
        let best_single = single
            .iter()
            .filter(|c| harmonically_related(c.freq_hz, 1.0 / period, 0.02))
            .map(|c| c.snr)
            .fold(0.0f64, f64::max);
        let best_summed = summed
            .iter()
            .filter(|c| harmonically_related(c.freq_hz, 1.0 / period, 0.02))
            .map(|c| c.snr)
            .fold(0.0f64, f64::max);
        assert!(
            best_summed > best_single,
            "harmonic summing should help narrow pulses: {best_summed} vs {best_single}"
        );
    }

    #[test]
    fn pure_noise_has_few_false_positives() {
        let mut rng = Rng::seed_from_u64(99);
        let cfg = ObsConfig::test_scale();
        let spec = DynamicSpectrum::noise(cfg, &mut rng);
        let series = dedisperse(&spec, Dm(0.0));
        // At 6σ on ~2000 exponential bins, a couple of excursions are
        // expected (rate ≈ e⁻⁷·2047 ≈ 2); at 8σ essentially none survive.
        let loose = search_series(&series, cfg.dt, Dm(0.0), &SearchConfig::default());
        assert!(loose.len() <= 8, "too many 6σ false positives: {}", loose.len());
        let strict = search_series(
            &series,
            cfg.dt,
            Dm(0.0),
            &SearchConfig { threshold_snr: 8.0, max_harmonics: 4 },
        );
        assert!(strict.len() <= 1, "too many 8σ false positives: {}", strict.len());
    }

    #[test]
    fn normalize_makes_unit_mean() {
        let mut p = vec![2.0, 4.0, 6.0];
        normalize_power(&mut p);
        let mean: f64 = p.iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-12);
        normalize_power(&mut []); // no panic on empty
    }

    #[test]
    fn harmonic_relation() {
        assert!(harmonically_related(10.0, 10.0, 0.001));
        assert!(harmonically_related(20.0, 10.0, 0.001)); // 2nd harmonic
        assert!(harmonically_related(5.0, 10.0, 0.001)); // subharmonic
        assert!(harmonically_related(15.0, 10.0, 0.001)); // 3/2
        assert!(!harmonically_related(10.0, 11.3, 0.001));
    }

    #[test]
    fn candidates_sorted_by_snr() {
        let (series, dt) = pulsar_series(0.128, 6.0, 3);
        let cands = search_series(
            &series,
            dt,
            Dm(60.0),
            &SearchConfig { threshold_snr: 3.0, max_harmonics: 4 },
        );
        for w in cands.windows(2) {
            assert!(w[0].snr >= w[1].snr);
        }
    }
}
