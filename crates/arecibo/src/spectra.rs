//! Synthetic dynamic spectra: the stand-in for the ALFA spectrometer.
//!
//! The real survey records "dynamic spectra at the telescope" — power as a
//! function of radio frequency and time for each of the 7 ALFA beams. We
//! generate statistically equivalent data with known ground truth: Gaussian
//! radiometer noise, dispersed periodic pulsars, dispersed single-pulse
//! transients, and the two canonical families of terrestrial interference
//! (persistent narrowband carriers and broadband impulses). Ground truth is
//! what lets the pipeline's recovery be *tested*, which the real data never
//! allowed.

use sciflow_core::rng::Rng;

use crate::units::Dm;

/// Observing configuration for one pointing of one beam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    pub n_channels: usize,
    pub n_samples: usize,
    /// Seconds per time sample.
    pub dt: f64,
    /// Band edges in MHz (ALFA: 1.4 GHz band).
    pub f_lo_mhz: f64,
    pub f_hi_mhz: f64,
}

impl ObsConfig {
    /// A small test-scale configuration with ALFA-like band parameters.
    pub fn test_scale() -> Self {
        ObsConfig { n_channels: 64, n_samples: 4096, dt: 1e-3, f_lo_mhz: 1375.0, f_hi_mhz: 1425.0 }
    }

    /// Centre frequency of channel `i`; channel 0 is the **highest**
    /// frequency (filterbank convention — highest frequencies arrive first).
    pub fn channel_freq_mhz(&self, i: usize) -> f64 {
        assert!(i < self.n_channels, "channel out of range");
        let bw = (self.f_hi_mhz - self.f_lo_mhz) / self.n_channels as f64;
        self.f_hi_mhz - (i as f64 + 0.5) * bw
    }

    pub fn duration_secs(&self) -> f64 {
        self.n_samples as f64 * self.dt
    }

    /// Raw volume of one spectrum at 4 bytes/sample.
    pub fn volume_bytes(&self) -> u64 {
        (self.n_channels * self.n_samples * std::mem::size_of::<f32>()) as u64
    }
}

/// Parameters of an injected pulsar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsarParams {
    pub dm: Dm,
    pub period_s: f64,
    /// Gaussian pulse width (1 σ) in seconds.
    pub width_s: f64,
    /// Peak amplitude in units of the noise σ.
    pub amplitude: f32,
    /// Phase offset of the first pulse, in seconds at infinite frequency.
    pub phase_s: f64,
}

/// A frequency–time power array for one beam.
#[derive(Debug, Clone)]
pub struct DynamicSpectrum {
    pub config: ObsConfig,
    /// Row-major `[channel][sample]`.
    data: Vec<f32>,
}

impl DynamicSpectrum {
    /// Pure radiometer noise: unit-variance Gaussian per sample.
    pub fn noise(config: ObsConfig, rng: &mut Rng) -> Self {
        let data = (0..config.n_channels * config.n_samples).map(|_| rng.gauss()).collect();
        DynamicSpectrum { config, data }
    }

    /// All-zero spectrum (for deterministic signal-only tests).
    pub fn zeros(config: ObsConfig) -> Self {
        DynamicSpectrum { config, data: vec![0.0; config.n_channels * config.n_samples] }
    }

    #[inline]
    pub fn at(&self, channel: usize, sample: usize) -> f32 {
        self.data[channel * self.config.n_samples + sample]
    }

    #[inline]
    fn at_mut(&mut self, channel: usize, sample: usize) -> &mut f32 {
        &mut self.data[channel * self.config.n_samples + sample]
    }

    /// Overwrite one sample (used by filters that rebuild spectra).
    #[inline]
    pub fn set(&mut self, channel: usize, sample: usize, value: f32) {
        *self.at_mut(channel, sample) = value;
    }

    /// One channel as a slice.
    pub fn channel(&self, channel: usize) -> &[f32] {
        let n = self.config.n_samples;
        &self.data[channel * n..(channel + 1) * n]
    }

    /// Add a dispersed periodic pulsar.
    pub fn inject_pulsar(&mut self, p: &PulsarParams) {
        assert!(p.period_s > 0.0 && p.width_s > 0.0, "pulsar parameters must be positive");
        let cfg = self.config;
        let half_window = (4.0 * p.width_s / cfg.dt).ceil() as i64;
        for ch in 0..cfg.n_channels {
            let delay = p.dm.delay_between(cfg.channel_freq_mhz(ch), cfg.f_hi_mhz);
            let mut k = 0u64;
            loop {
                let centre = p.phase_s + k as f64 * p.period_s + delay;
                if centre > cfg.duration_secs() + 4.0 * p.width_s {
                    break;
                }
                let c_idx = (centre / cfg.dt).round() as i64;
                for s in (c_idx - half_window).max(0)
                    ..(c_idx + half_window + 1).min(cfg.n_samples as i64)
                {
                    let t = s as f64 * cfg.dt;
                    let x = (t - centre) / p.width_s;
                    *self.at_mut(ch, s as usize) += p.amplitude * (-0.5 * x * x).exp() as f32;
                }
                k += 1;
            }
        }
    }

    /// Add a single dispersed transient (one pulse, no periodicity) —
    /// the signal class the single-pulse search targets.
    pub fn inject_transient(&mut self, dm: Dm, t0_s: f64, width_s: f64, amplitude: f32) {
        let cfg = self.config;
        let half_window = (4.0 * width_s / cfg.dt).ceil() as i64;
        for ch in 0..cfg.n_channels {
            let centre = t0_s + dm.delay_between(cfg.channel_freq_mhz(ch), cfg.f_hi_mhz);
            let c_idx = (centre / cfg.dt).round() as i64;
            for s in
                (c_idx - half_window).max(0)..(c_idx + half_window + 1).min(cfg.n_samples as i64)
            {
                let t = s as f64 * cfg.dt;
                let x = (t - centre) / width_s;
                *self.at_mut(ch, s as usize) += amplitude * (-0.5 * x * x).exp() as f32;
            }
        }
    }

    /// Persistent narrowband interference: a strong carrier in one channel.
    pub fn inject_narrowband_rfi(&mut self, channel: usize, amplitude: f32) {
        for s in 0..self.config.n_samples {
            *self.at_mut(channel, s) += amplitude;
        }
    }

    /// Broadband impulsive interference: all channels light up at the same
    /// instant (zero dispersion — the terrestrial signature).
    pub fn inject_impulse_rfi(&mut self, sample: usize, amplitude: f32) {
        for ch in 0..self.config.n_channels {
            *self.at_mut(ch, sample) += amplitude;
        }
    }

    /// Per-channel sample mean (RFI diagnostics).
    pub fn channel_means(&self) -> Vec<f64> {
        (0..self.config.n_channels)
            .map(|ch| {
                self.channel(ch).iter().map(|&x| x as f64).sum::<f64>()
                    / self.config.n_samples as f64
            })
            .collect()
    }

    /// Per-channel sample variance.
    pub fn channel_variances(&self) -> Vec<f64> {
        self.channel_means()
            .iter()
            .enumerate()
            .map(|(ch, &mean)| {
                self.channel(ch)
                    .iter()
                    .map(|&x| {
                        let d = x as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / self.config.n_samples as f64
            })
            .collect()
    }

    /// Zero out a channel (RFI excision).
    pub fn zap_channel(&mut self, channel: usize) {
        let n = self.config.n_samples;
        self.data[channel * n..(channel + 1) * n].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_frequencies_descend_within_band() {
        let cfg = ObsConfig::test_scale();
        let f0 = cfg.channel_freq_mhz(0);
        let flast = cfg.channel_freq_mhz(cfg.n_channels - 1);
        assert!(f0 > flast);
        assert!(f0 < cfg.f_hi_mhz && flast > cfg.f_lo_mhz);
    }

    #[test]
    fn noise_statistics_are_unit_gaussian() {
        let mut rng = Rng::seed_from_u64(1);
        let spec = DynamicSpectrum::noise(ObsConfig::test_scale(), &mut rng);
        let means = spec.channel_means();
        let vars = spec.channel_variances();
        let grand_mean: f64 = means.iter().sum::<f64>() / means.len() as f64;
        let grand_var: f64 = vars.iter().sum::<f64>() / vars.len() as f64;
        assert!(grand_mean.abs() < 0.01, "mean {grand_mean}");
        assert!((grand_var - 1.0).abs() < 0.05, "var {grand_var}");
    }

    #[test]
    fn pulsar_injection_is_dispersed() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        let dm = Dm(100.0);
        spec.inject_pulsar(&PulsarParams {
            dm,
            period_s: 1.0, // a single pulse within the 4.096 s window... and more
            width_s: 0.003,
            amplitude: 10.0,
            phase_s: 0.5,
        });
        // Peak sample in the top and bottom channels should differ by the
        // dispersion delay across the band.
        let peak = |ch: usize| {
            (0..cfg.n_samples).max_by(|&a, &b| spec.at(ch, a).total_cmp(&spec.at(ch, b))).unwrap()
        };
        let top = peak(0);
        let bottom = peak(cfg.n_channels - 1);
        let expected = dm
            .delay_between(cfg.channel_freq_mhz(cfg.n_channels - 1), cfg.channel_freq_mhz(0))
            / cfg.dt;
        let got = bottom as f64 - top as f64;
        assert!((got - expected).abs() <= 2.0, "delay {got} samples, expected {expected}");
    }

    #[test]
    fn narrowband_rfi_raises_one_channel_mean() {
        let mut rng = Rng::seed_from_u64(2);
        let mut spec = DynamicSpectrum::noise(ObsConfig::test_scale(), &mut rng);
        spec.inject_narrowband_rfi(10, 5.0);
        let means = spec.channel_means();
        assert!(means[10] > 4.5);
        assert!(means[11] < 1.0);
    }

    #[test]
    fn impulse_rfi_hits_all_channels_at_once() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        spec.inject_impulse_rfi(2000, 8.0);
        for ch in [0, 31, 63] {
            assert_eq!(spec.at(ch, 2000), 8.0);
            assert_eq!(spec.at(ch, 1999), 0.0);
        }
    }

    #[test]
    fn zap_channel_clears_it() {
        let mut rng = Rng::seed_from_u64(3);
        let mut spec = DynamicSpectrum::noise(ObsConfig::test_scale(), &mut rng);
        spec.zap_channel(5);
        assert!(spec.channel(5).iter().all(|&x| x == 0.0));
        assert!(spec.channel(6).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn volume_accounting() {
        let cfg = ObsConfig::test_scale();
        assert_eq!(cfg.volume_bytes(), 64 * 4096 * 4);
        assert!((cfg.duration_secs() - 4.096).abs() < 1e-9);
    }
}
