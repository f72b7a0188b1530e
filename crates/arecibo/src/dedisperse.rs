//! Dedispersion: collapsing a dynamic spectrum to a time series at a trial
//! dispersion measure.
//!
//! "Dedispersion entails summing over the frequency channels with about 1000
//! different trial values of the dispersion measure, each yielding a time
//! series of length equal to the original number of time samples. These time
//! series require storage about equal to that of the original raw data."
//! That storage identity — the core of the paper's 30 TB instantaneous
//! requirement — falls straight out of [`dedisperse_many`].

use crate::spectra::DynamicSpectrum;
use crate::units::Dm;

/// Dedisperse at one trial DM: each channel is advanced by its dispersion
/// delay relative to the top of the band, then channels are summed and
/// normalised by the channel count. Output length equals the input sample
/// count (paper: "a time series of length equal to the original number of
/// time samples").
pub fn dedisperse(spec: &DynamicSpectrum, dm: Dm) -> Vec<f32> {
    let cfg = spec.config;
    let mut out = vec![0.0f32; cfg.n_samples];
    let norm = 1.0 / cfg.n_channels as f32;
    for ch in 0..cfg.n_channels {
        let delay_s = dm.delay_between(cfg.channel_freq_mhz(ch), cfg.f_hi_mhz);
        let shift = (delay_s / cfg.dt).round() as usize;
        let channel = spec.channel(ch);
        // Sample t of the output reads sample t + shift of the channel: the
        // later-arriving low-frequency power is pulled back into alignment.
        let usable = cfg.n_samples.saturating_sub(shift);
        for t in 0..usable {
            out[t] += channel[t + shift] * norm;
        }
    }
    out
}

/// Dedisperse at every trial DM. The returned matrix is the "dedispersed
/// time series" data product whose storage ≈ the raw data when
/// `trials.len()` ≈ `n_channels` (the survey's regime).
pub fn dedisperse_many(spec: &DynamicSpectrum, trials: &[Dm]) -> Vec<Vec<f32>> {
    trials.iter().map(|&dm| dedisperse(spec, dm)).collect()
}

/// Peak signal-to-noise of a time series: (max − mean) / σ.
pub fn series_peak_snr(series: &[f32]) -> f64 {
    let n = series.len() as f64;
    let mean = series.iter().map(|&x| x as f64).sum::<f64>() / n;
    let var = series
        .iter()
        .map(|&x| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let sigma = var.sqrt();
    if sigma == 0.0 {
        return 0.0;
    }
    let max = series.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    (max - mean) / sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectra::{ObsConfig, PulsarParams};
    use crate::units::dm_trials;
    use sciflow_core::rng::Rng;

    #[test]
    fn output_volume_matches_paper_identity() {
        let cfg = ObsConfig::test_scale();
        let spec = DynamicSpectrum::zeros(cfg);
        let trials = dm_trials(500.0, cfg.n_channels); // trials ≈ channels
        let series = dedisperse_many(&spec, &trials);
        let raw_bytes = cfg.volume_bytes();
        let dedisp_bytes = (series.len() * series[0].len() * 4) as u64;
        assert_eq!(dedisp_bytes, raw_bytes, "time series storage ≈ raw data");
    }

    #[test]
    fn transient_snr_peaks_at_true_dm() {
        let mut rng = Rng::seed_from_u64(42);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let true_dm = Dm(120.0);
        spec.inject_transient(true_dm, 1.5, 0.004, 6.0);
        let trials = dm_trials(300.0, 61); // spacing 5 pc/cm³
        let (found, snr) = trials
            .iter()
            .map(|&dm| (dm, series_peak_snr(&dedisperse(&spec, dm))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            (found.0 - true_dm.0).abs() <= 10.0,
            "found DM {} (snr {snr}), wanted {}",
            found.0,
            true_dm.0
        );
        assert!(snr > 5.0, "snr {snr}");
    }

    #[test]
    fn wrong_dm_smears_the_pulse() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        let true_dm = Dm(150.0);
        spec.inject_transient(true_dm, 1.5, 0.002, 10.0);
        let right = series_peak_snr(&dedisperse(&spec, true_dm));
        let wrong = series_peak_snr(&dedisperse(&spec, Dm(0.0)));
        assert!(right > 2.0 * wrong, "right {right}, wrong {wrong}");
    }

    #[test]
    fn zero_dm_is_a_plain_channel_sum() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        spec.inject_impulse_rfi(100, 2.0);
        let series = dedisperse(&spec, Dm(0.0));
        assert!((series[100] - 2.0).abs() < 1e-6);
        assert_eq!(series[99], 0.0);
    }

    #[test]
    fn periodic_signal_survives_dedispersion() {
        let mut rng = Rng::seed_from_u64(7);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let p = PulsarParams {
            dm: Dm(80.0),
            period_s: 0.25,
            width_s: 0.004,
            amplitude: 4.0,
            phase_s: 0.05,
        };
        spec.inject_pulsar(&p);
        let series = dedisperse(&spec, p.dm);
        // ~16 pulses in 4.096 s; the brightest should stand well above noise.
        assert!(series_peak_snr(&series) > 5.0);
    }

    #[test]
    fn snr_of_constant_series_is_zero() {
        assert_eq!(series_peak_snr(&[1.0; 64]), 0.0);
    }
}
