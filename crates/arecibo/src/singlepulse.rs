//! Single-pulse (transient) search.
//!
//! The pipeline includes "investigation of the time series for transient
//! signals that may be associated with astrophysical objects other than
//! pulsars" — and the paper's serendipity list (evaporating black holes,
//! extrasolar-planet emissions) is exactly what this stage exists to catch.
//! The standard technique: matched filtering with boxcars of increasing
//! width on the dedispersed series.

use crate::units::Dm;

/// A single-pulse detection.
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePulse {
    pub dm: Dm,
    /// Time of the pulse (start of the best boxcar), in seconds.
    pub t_secs: f64,
    /// Best-matching boxcar width, in samples.
    pub width_samples: usize,
    pub snr: f64,
}

/// Search one dedispersed series for single pulses. Boxcar widths double
/// from 1 to `max_width` samples; SNR is the boxcar sum over σ√w after
/// robust baseline removal.
pub fn single_pulse_search(
    series: &[f32],
    dt: f64,
    dm: Dm,
    threshold_snr: f64,
    max_width: usize,
) -> Vec<SinglePulse> {
    assert!(max_width >= 1, "max_width must be at least 1");
    let n = series.len();
    if n == 0 {
        return Vec::new();
    }
    // Robust baseline: median and MAD-derived sigma.
    let mut sorted: Vec<f32> = series.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[n / 2] as f64;
    let mad = {
        let mut devs: Vec<f64> = series.iter().map(|&x| (x as f64 - median).abs()).collect();
        devs.sort_by(|a, b| a.total_cmp(b));
        devs[n / 2]
    };
    let sigma = (mad * 1.4826).max(1e-12);

    // Prefix sums of baseline-subtracted series.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    for &x in series {
        prefix.push(prefix.last().expect("non-empty") + (x as f64 - median));
    }

    let mut best: Vec<(f64, usize)> = vec![(f64::NEG_INFINITY, 1); n];
    let mut w = 1usize;
    while w <= max_width && w <= n {
        for start in 0..=(n - w) {
            let sum = prefix[start + w] - prefix[start];
            let snr = sum / (sigma * (w as f64).sqrt());
            if snr > best[start].0 {
                best[start] = (snr, w);
            }
        }
        w *= 2;
    }

    // Threshold and de-duplicate: keep local maxima separated by at least
    // their own width.
    let mut hits: Vec<SinglePulse> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let (snr, width) = best[i];
        if snr >= threshold_snr {
            // Extend over the contiguous above-threshold neighbourhood and
            // keep its maximum.
            let mut j = i;
            let mut peak = (snr, width, i);
            while j < n && best[j].0 >= threshold_snr {
                if best[j].0 > peak.0 {
                    peak = (best[j].0, best[j].1, j);
                }
                j += 1;
            }
            hits.push(SinglePulse {
                dm,
                t_secs: peak.2 as f64 * dt,
                width_samples: peak.1,
                snr: peak.0,
            });
            i = j + peak.1;
        } else {
            i += 1;
        }
    }
    hits.sort_by(|a, b| b.snr.total_cmp(&a.snr));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedisperse::dedisperse;
    use crate::spectra::{DynamicSpectrum, ObsConfig};
    use sciflow_core::rng::Rng;

    #[test]
    fn finds_injected_transient_at_right_time() {
        let mut rng = Rng::seed_from_u64(4);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let dm = Dm(90.0);
        spec.inject_transient(dm, 2.0, 0.006, 5.0);
        let series = dedisperse(&spec, dm);
        let hits = single_pulse_search(&series, cfg.dt, dm, 6.0, 64);
        assert!(!hits.is_empty(), "transient not found");
        let top = &hits[0];
        assert!((top.t_secs - 2.0).abs() < 0.05, "found at {}", top.t_secs);
        assert!(top.snr > 6.0);
    }

    #[test]
    fn wide_pulses_prefer_wide_boxcars() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        // Make the off-pulse noisy enough for a MAD baseline.
        let mut rng = Rng::seed_from_u64(5);
        let mut noisy = DynamicSpectrum::noise(cfg, &mut rng);
        spec.inject_transient(Dm(0.0), 1.0, 0.030, 2.0); // wide, weak
        let series: Vec<f32> = dedisperse(&spec, Dm(0.0))
            .iter()
            .zip(dedisperse(&noisy, Dm(0.0)))
            .map(|(&a, b)| a + b)
            .collect();
        let _ = &mut noisy;
        let hits = single_pulse_search(&series, cfg.dt, Dm(0.0), 5.0, 128);
        assert!(!hits.is_empty());
        assert!(hits[0].width_samples >= 16, "width {}", hits[0].width_samples);
    }

    #[test]
    fn pure_noise_is_mostly_quiet() {
        let mut rng = Rng::seed_from_u64(6);
        let cfg = ObsConfig::test_scale();
        let spec = DynamicSpectrum::noise(cfg, &mut rng);
        let series = dedisperse(&spec, Dm(0.0));
        let hits = single_pulse_search(&series, cfg.dt, Dm(0.0), 7.0, 64);
        assert!(hits.len() <= 1, "false positives: {}", hits.len());
    }

    #[test]
    fn two_separated_pulses_both_found() {
        let mut rng = Rng::seed_from_u64(8);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        spec.inject_transient(Dm(50.0), 1.0, 0.005, 6.0);
        spec.inject_transient(Dm(50.0), 3.0, 0.005, 6.0);
        let series = dedisperse(&spec, Dm(50.0));
        let hits = single_pulse_search(&series, cfg.dt, Dm(50.0), 6.0, 64);
        assert!(hits.len() >= 2, "found {}", hits.len());
        let mut times: Vec<f64> = hits.iter().take(2).map(|h| h.t_secs).collect();
        times.sort_by(|a, b| a.total_cmp(b));
        assert!((times[0] - 1.0).abs() < 0.05);
        assert!((times[1] - 3.0).abs() < 0.05);
    }

    #[test]
    fn empty_series_yields_nothing() {
        assert!(single_pulse_search(&[], 1e-3, Dm(0.0), 5.0, 8).is_empty());
    }
}
