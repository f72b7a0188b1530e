//! Radio-frequency interference (RFI) excision.
//!
//! "Interference from terrestrial sources needs to be at least identified
//! and most likely removed from the data. This requires development of new
//! algorithms that simultaneously investigate dynamic spectra for each of
//! the 7 ALFA beams and apply tests of different kinds." Three such tests
//! live here: robust per-channel statistics (persistent narrowband
//! carriers), the zero-DM filter (broadband impulses), and multi-beam
//! coincidence (celestial sources illuminate one beam; transmitters
//! illuminate all seven).

use crate::search::{harmonically_related, Candidate};
use crate::spectra::DynamicSpectrum;

/// Robust median/MAD over a slice.
fn median_mad(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "need at least one value");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let mut devs: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
    devs.sort_by(|a, b| a.total_cmp(b));
    (median, devs[devs.len() / 2])
}

/// Identify channels whose mean or variance deviates from the band by more
/// than `threshold` robust sigmas. Returns a mask: `true` = contaminated.
pub fn channel_mask(spec: &DynamicSpectrum, threshold: f64) -> Vec<bool> {
    let means = spec.channel_means();
    let vars = spec.channel_variances();
    let (m_med, m_mad) = median_mad(&means);
    let (v_med, v_mad) = median_mad(&vars);
    let m_sigma = (m_mad * 1.4826).max(1e-9);
    let v_sigma = (v_mad * 1.4826).max(1e-9);
    means
        .iter()
        .zip(&vars)
        .map(|(&m, &v)| {
            ((m - m_med) / m_sigma).abs() > threshold || ((v - v_med) / v_sigma).abs() > threshold
        })
        .collect()
}

/// Zap every channel flagged by [`channel_mask`]. Returns how many were
/// excised.
pub fn excise_channels(spec: &mut DynamicSpectrum, threshold: f64) -> usize {
    let mask = channel_mask(spec, threshold);
    let mut zapped = 0;
    for (ch, bad) in mask.iter().enumerate() {
        if *bad {
            spec.zap_channel(ch);
            zapped += 1;
        }
    }
    zapped
}

/// The zero-DM filter: subtract the instantaneous band-average from every
/// channel. Broadband zero-dispersion impulses vanish; a dispersed
/// astrophysical pulse, being mis-aligned across channels, mostly survives.
pub fn zero_dm_filter(spec: &DynamicSpectrum) -> DynamicSpectrum {
    let cfg = spec.config;
    let mut out = DynamicSpectrum::zeros(cfg);
    for s in 0..cfg.n_samples {
        let mean: f32 =
            (0..cfg.n_channels).map(|ch| spec.at(ch, s)).sum::<f32>() / cfg.n_channels as f32;
        for ch in 0..cfg.n_channels {
            out.set(ch, s, spec.at(ch, s) - mean);
        }
    }
    out
}

/// A candidate annotated with how many beams it appeared in.
#[derive(Debug, Clone)]
pub struct BeamCoincidence {
    pub candidate: Candidate,
    pub beams: usize,
    /// Celestial sources appear in one (rarely two adjacent) beams; a
    /// candidate in `>= terrestrial_min` beams is flagged as interference.
    pub terrestrial: bool,
}

/// Cross-match candidates from the beams of one pointing. Candidates whose
/// frequencies are harmonically related (within `tol`) are treated as the
/// same underlying signal; anything seen in `terrestrial_min`+ beams is
/// marked terrestrial.
pub fn multibeam_coincidence(
    per_beam: &[Vec<Candidate>],
    tol: f64,
    terrestrial_min: usize,
) -> Vec<BeamCoincidence> {
    let mut out: Vec<BeamCoincidence> = Vec::new();
    for beam_cands in per_beam {
        for cand in beam_cands {
            match out
                .iter_mut()
                .find(|bc| harmonically_related(bc.candidate.freq_hz, cand.freq_hz, tol))
            {
                Some(bc) => {
                    bc.beams += 1;
                    if cand.snr > bc.candidate.snr {
                        bc.candidate = cand.clone();
                    }
                }
                None => out.push(BeamCoincidence {
                    candidate: cand.clone(),
                    beams: 1,
                    terrestrial: false,
                }),
            }
        }
    }
    for bc in &mut out {
        bc.terrestrial = bc.beams >= terrestrial_min;
    }
    out.sort_by(|a, b| b.candidate.snr.total_cmp(&a.candidate.snr));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedisperse::{dedisperse, series_peak_snr};
    use crate::spectra::{ObsConfig, PulsarParams};
    use crate::units::Dm;
    use sciflow_core::rng::Rng;

    #[test]
    fn narrowband_rfi_is_masked() {
        let mut rng = Rng::seed_from_u64(31);
        let mut spec = DynamicSpectrum::noise(ObsConfig::test_scale(), &mut rng);
        spec.inject_narrowband_rfi(7, 3.0);
        spec.inject_narrowband_rfi(40, 5.0);
        let mask = channel_mask(&spec, 6.0);
        assert!(mask[7] && mask[40]);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 2, "only the injected channels");
    }

    #[test]
    fn excision_removes_false_periodicity() {
        let mut rng = Rng::seed_from_u64(32);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        spec.inject_narrowband_rfi(12, 6.0);
        let zapped = excise_channels(&mut spec, 6.0);
        assert_eq!(zapped, 1);
        assert!(spec.channel(12).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_dm_filter_kills_impulses_keeps_dispersed_pulses() {
        let cfg = ObsConfig::test_scale();
        let mut rng = Rng::seed_from_u64(33);
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        let dm = Dm(150.0);
        spec.inject_transient(dm, 2.0, 0.004, 6.0);
        spec.inject_impulse_rfi(500, 20.0);
        spec.inject_impulse_rfi(3000, 20.0);

        // Before filtering, DM 0 has huge spikes from the impulses.
        let peak_at = |s: &DynamicSpectrum, sample: usize| dedisperse(s, Dm(0.0))[sample];
        assert!(peak_at(&spec, 500) > 15.0);
        let filtered = zero_dm_filter(&spec);
        // The filter removes the band-average exactly, so the DM-0 series is
        // numerically zero at the impulse samples.
        assert!(
            peak_at(&filtered, 500).abs() < 0.01,
            "impulse survived: {}",
            peak_at(&filtered, 500)
        );
        assert!(peak_at(&filtered, 3000).abs() < 0.01);

        // The dispersed transient survives filtering.
        let pulse_after = series_peak_snr(&dedisperse(&filtered, dm));
        assert!(pulse_after > 5.0, "dispersed pulse lost: {pulse_after}");
    }

    #[test]
    fn multibeam_coincidence_flags_all_beam_signals() {
        let mk = |freq: f64, snr: f64| Candidate {
            dm: Dm(0.0),
            freq_hz: freq,
            period_s: 1.0 / freq,
            snr,
            harmonics: 1,
        };
        // A 60 Hz carrier in all 7 beams; a pulsar in beam 3 only.
        let per_beam: Vec<Vec<Candidate>> = (0..7)
            .map(|b| {
                let mut v = vec![mk(60.0, 9.0 + b as f64)];
                if b == 3 {
                    v.push(mk(7.81, 12.0));
                }
                v
            })
            .collect();
        let coincidences = multibeam_coincidence(&per_beam, 0.01, 4);
        let carrier = coincidences
            .iter()
            .find(|c| harmonically_related(c.candidate.freq_hz, 60.0, 0.01))
            .unwrap();
        assert!(carrier.terrestrial);
        assert_eq!(carrier.beams, 7);
        let pulsar = coincidences
            .iter()
            .find(|c| harmonically_related(c.candidate.freq_hz, 7.81, 0.01))
            .unwrap();
        assert!(!pulsar.terrestrial);
        assert_eq!(pulsar.beams, 1);
    }

    #[test]
    fn coincidence_keeps_strongest_exemplar() {
        let mk =
            |snr: f64| Candidate { dm: Dm(0.0), freq_hz: 10.0, period_s: 0.1, snr, harmonics: 1 };
        let per_beam = vec![vec![mk(5.0)], vec![mk(11.0)], vec![mk(7.0)]];
        let out = multibeam_coincidence(&per_beam, 0.01, 3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].candidate.snr, 11.0);
        assert!(out[0].terrestrial);
    }

    #[test]
    fn pulsar_survives_channel_masking() {
        // A dispersed pulsar spreads over all channels; masking must not
        // flag clean channels.
        let mut rng = Rng::seed_from_u64(34);
        let cfg = ObsConfig::test_scale();
        let mut spec = DynamicSpectrum::noise(cfg, &mut rng);
        spec.inject_pulsar(&PulsarParams {
            dm: Dm(60.0),
            period_s: 0.2,
            width_s: 0.005,
            amplitude: 4.0,
            phase_s: 0.0,
        });
        let mask = channel_mask(&spec, 6.0);
        assert!(mask.iter().filter(|&&b| b).count() <= 2);
    }
}
