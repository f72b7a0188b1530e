//! Folding: "reprocessing of dedispersed time series to signal average at
//! the spin period of a candidate signal".
//!
//! Folding phase-wraps the series at a candidate period; a real pulsar's
//! pulses stack coherently into a sharp profile while noise averages down.

/// The folded pulse profile and its statistics.
#[derive(Debug, Clone)]
pub struct FoldedProfile {
    /// Mean intensity per phase bin.
    pub bins: Vec<f64>,
    /// Samples contributing to each bin.
    pub counts: Vec<u64>,
    pub period_s: f64,
}

impl FoldedProfile {
    /// Profile significance: peak height above the off-pulse median, in
    /// units of the off-pulse standard deviation. The brightest quarter of
    /// bins is treated as on-pulse and excluded from the baseline estimate.
    pub fn snr(&self) -> f64 {
        let n = self.bins.len();
        if n < 8 {
            return 0.0;
        }
        let mut sorted = self.bins.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let off = &sorted[..n - n / 4];
        let median = off[off.len() / 2];
        let var = off.iter().map(|&x| (x - median) * (x - median)).sum::<f64>() / off.len() as f64;
        let sigma = var.sqrt();
        if sigma == 0.0 {
            return 0.0;
        }
        let peak = self.bins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (peak - median) / sigma
    }
}

/// Fold `series` (sampled every `dt` seconds) at `period_s` into `n_bins`
/// phase bins.
pub fn fold(series: &[f32], dt: f64, period_s: f64, n_bins: usize) -> FoldedProfile {
    assert!(period_s > 0.0, "period must be positive");
    assert!(n_bins >= 2, "need at least two phase bins");
    let mut sums = vec![0.0f64; n_bins];
    let mut counts = vec![0u64; n_bins];
    for (i, &x) in series.iter().enumerate() {
        let t = i as f64 * dt;
        let phase = (t / period_s).fract();
        let bin = ((phase * n_bins as f64) as usize).min(n_bins - 1);
        sums[bin] += x as f64;
        counts[bin] += 1;
    }
    let bins =
        sums.iter().zip(&counts).map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
    FoldedProfile { bins, counts, period_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedisperse::dedisperse;
    use crate::spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
    use crate::units::Dm;
    use sciflow_core::rng::Rng;

    fn pulsar_series(period: f64) -> (Vec<f32>, f64) {
        let mut rng = Rng::seed_from_u64(21);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let p = PulsarParams {
            dm: Dm(40.0),
            period_s: period,
            width_s: period / 25.0,
            amplitude: 4.0,
            phase_s: 0.02,
        };
        spec.inject_pulsar(&p);
        (dedisperse(&spec, p.dm), cfg.dt)
    }

    #[test]
    fn folding_at_true_period_gives_sharp_profile() {
        let (series, dt) = pulsar_series(0.2);
        let right = fold(&series, dt, 0.2, 32).snr();
        let wrong = fold(&series, dt, 0.173, 32).snr();
        assert!(right > 6.0, "true-period snr {right}");
        assert!(right > 2.0 * wrong, "right {right} wrong {wrong}");
    }

    #[test]
    fn all_bins_receive_samples() {
        let (series, dt) = pulsar_series(0.2);
        let prof = fold(&series, dt, 0.2, 32);
        assert!(prof.counts.iter().all(|&c| c > 0));
        let total: u64 = prof.counts.iter().sum();
        assert_eq!(total as usize, series.len());
    }

    #[test]
    fn peak_phase_matches_injection() {
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::zeros(cfg);
        let p = PulsarParams {
            dm: Dm(0.0),
            period_s: 0.256,
            width_s: 0.005,
            amplitude: 5.0,
            phase_s: 0.064, // quarter of a period
        };
        spec.inject_pulsar(&p);
        let series = dedisperse(&spec, Dm(0.0));
        let prof = fold(&series, cfg.dt, 0.256, 64);
        let peak = (0..prof.bins.len()).max_by(|&a, &b| prof.bins[a].total_cmp(&prof.bins[b]));
        let phase = peak.unwrap() as f64 / prof.bins.len() as f64;
        assert!((phase - 0.25).abs() < 0.05, "phase {phase}");
    }

    #[test]
    fn degenerate_inputs() {
        let prof = fold(&[1.0; 4], 1.0, 10.0, 4);
        assert_eq!(prof.snr(), 0.0, "short profiles report zero snr");
        let flat = fold(&[0.0; 4096], 1e-3, 0.1, 32);
        assert_eq!(flat.snr(), 0.0, "zero variance reports zero snr");
    }
}
