//! The end-to-end per-pointing search pipeline.
//!
//! Mirrors the paper's chain: RFI identification/excision → dedispersion
//! over the trial-DM ladder → Fourier analysis with harmonic summing and
//! threshold tests → folding at candidate periods → single-pulse search →
//! multi-beam coincidence. Everything downstream (sky-wide culling, the
//! candidate database) lives in [`crate::meta`].

use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::version::VersionId;

use crate::dedisperse::dedisperse;
use crate::fold::fold;
use crate::rfi::{excise_channels, multibeam_coincidence, zero_dm_filter, BeamCoincidence};
use crate::search::{harmonically_related, search_series, Candidate, SearchConfig};
use crate::singlepulse::{single_pulse_search, SinglePulse};
use crate::spectra::DynamicSpectrum;
use crate::units::dm_trials;

/// Pipeline configuration for one pointing.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub dm_max: f64,
    pub n_dm_trials: usize,
    pub search: SearchConfig,
    /// Single-pulse detection threshold (σ).
    pub sp_threshold: f64,
    pub sp_max_width: usize,
    /// Channel-mask threshold (robust σ).
    pub rfi_threshold: f64,
    /// Phase bins used when folding candidates.
    pub fold_bins: usize,
    /// Fold SNR needed to confirm a candidate.
    pub fold_confirm_snr: f64,
    /// Beams required to call a signal terrestrial.
    pub beam_coincidence_min: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dm_max: 300.0,
            n_dm_trials: 31,
            search: SearchConfig { threshold_snr: 6.0, max_harmonics: 4 },
            sp_threshold: 7.0,
            sp_max_width: 64,
            rfi_threshold: 6.0,
            fold_bins: 32,
            fold_confirm_snr: 4.0,
            beam_coincidence_min: 4,
        }
    }
}

/// Results from one beam of one pointing.
#[derive(Debug, Clone)]
pub struct BeamOutput {
    pub beam: u32,
    pub zapped_channels: usize,
    /// Best periodic candidate per distinct frequency, over all trial DMs.
    pub periodic: Vec<Candidate>,
    pub single_pulses: Vec<SinglePulse>,
}

/// A candidate that survived coincidence tests and fold confirmation.
#[derive(Debug, Clone)]
pub struct ConfirmedCandidate {
    pub candidate: Candidate,
    pub fold_snr: f64,
    pub beams: usize,
}

/// The full output of one processed pointing.
#[derive(Debug)]
pub struct PointingOutput {
    pub pointing: u32,
    pub beams: Vec<BeamOutput>,
    /// Cross-beam groupings, terrestrial signals flagged.
    pub coincidences: Vec<BeamCoincidence>,
    pub confirmed: Vec<ConfirmedCandidate>,
    /// Raw input volume.
    pub raw_bytes: u64,
    /// Volume of the data products (candidate records, profiles, masks,
    /// diagnostics) — the "one to a few percent" of the paper at survey
    /// scale.
    pub product_bytes: u64,
    /// Accumulated provenance for the pointing's products.
    pub provenance: ProvenanceRecord,
}

/// Keep the strongest candidate per distinct (harmonically grouped)
/// frequency — collapsing the trial-DM dimension.
fn best_per_frequency(mut all: Vec<Candidate>) -> Vec<Candidate> {
    all.sort_by(|a, b| b.snr.total_cmp(&a.snr));
    let mut kept: Vec<Candidate> = Vec::new();
    for c in all {
        if !kept.iter().any(|k| harmonically_related(k.freq_hz, c.freq_hz, 0.01)) {
            kept.push(c);
        }
    }
    kept
}

/// Process one beam: RFI cleaning, DM-ladder dedispersion, periodicity and
/// single-pulse searches.
pub fn process_beam(beam: u32, spec: &DynamicSpectrum, cfg: &PipelineConfig) -> BeamOutput {
    let mut cleaned = spec.clone();
    let zapped = excise_channels(&mut cleaned, cfg.rfi_threshold);
    let filtered = zero_dm_filter(&cleaned);
    let dt = filtered.config.dt;

    let trials = dm_trials(cfg.dm_max, cfg.n_dm_trials);
    let mut periodic = Vec::new();
    let mut single_pulses = Vec::new();
    for &dm in &trials {
        let series = dedisperse(&filtered, dm);
        periodic.extend(search_series(&series, dt, dm, &cfg.search));
        single_pulses.extend(single_pulse_search(
            &series,
            dt,
            dm,
            cfg.sp_threshold,
            cfg.sp_max_width,
        ));
    }
    let periodic = best_per_frequency(periodic);
    // Collapse single pulses to the best per time neighbourhood.
    single_pulses.sort_by(|a, b| b.snr.total_cmp(&a.snr));
    let mut kept: Vec<SinglePulse> = Vec::new();
    for sp in single_pulses {
        if !kept.iter().any(|k| (k.t_secs - sp.t_secs).abs() < 0.05) {
            kept.push(sp);
        }
    }
    BeamOutput { beam, zapped_channels: zapped, periodic, single_pulses: kept }
}

/// Process a whole pointing: all beams, coincidence filtering, fold
/// confirmation, product accounting and provenance.
pub fn process_pointing(
    pointing: u32,
    beams: &[DynamicSpectrum],
    cfg: &PipelineConfig,
    version: VersionId,
) -> PointingOutput {
    assert!(!beams.is_empty(), "a pointing has at least one beam");
    let raw_bytes: u64 = beams.iter().map(|b| b.config.volume_bytes()).sum();

    let beam_outputs: Vec<BeamOutput> =
        beams.iter().enumerate().map(|(i, spec)| process_beam(i as u32, spec, cfg)).collect();

    let per_beam: Vec<Vec<Candidate>> = beam_outputs.iter().map(|b| b.periodic.clone()).collect();
    let coincidences = multibeam_coincidence(&per_beam, 0.01, cfg.beam_coincidence_min);

    // Fold-confirm the celestial survivors against the beam where each
    // candidate was strongest.
    let mut confirmed = Vec::new();
    for bc in coincidences.iter().filter(|bc| !bc.terrestrial) {
        // Find the beam holding the exemplar.
        let beam_idx = beam_outputs
            .iter()
            .position(|b| b.periodic.iter().any(|c| c == &bc.candidate))
            .unwrap_or(0);
        let mut cleaned = beams[beam_idx].clone();
        excise_channels(&mut cleaned, cfg.rfi_threshold);
        let filtered = zero_dm_filter(&cleaned);
        let series = dedisperse(&filtered, bc.candidate.dm);
        let profile = fold(&series, filtered.config.dt, bc.candidate.period_s, cfg.fold_bins);
        let fold_snr = profile.snr();
        if fold_snr >= cfg.fold_confirm_snr {
            confirmed.push(ConfirmedCandidate {
                candidate: bc.candidate.clone(),
                fold_snr,
                beams: bc.beams,
            });
        }
    }

    // Product accounting: candidate records, single-pulse records, folded
    // profiles, channel masks, per-beam diagnostics.
    const CAND_RECORD: u64 = 64;
    const SP_RECORD: u64 = 32;
    let n_cands: u64 = beam_outputs.iter().map(|b| b.periodic.len() as u64).sum();
    let n_sp: u64 = beam_outputs.iter().map(|b| b.single_pulses.len() as u64).sum();
    let profiles = confirmed.len() as u64 * cfg.fold_bins as u64 * 8;
    let masks: u64 = beams.iter().map(|b| b.config.n_channels as u64).sum();
    let diagnostics = beams.len() as u64 * 4 * 1024; // summary stats & plots
    let product_bytes = n_cands * CAND_RECORD + n_sp * SP_RECORD + profiles + masks + diagnostics;

    let mut provenance = ProvenanceRecord::new();
    provenance.push(
        ProvenanceStep::new("PulsarSearchPipeline", version)
            .with_param("dm_max", format!("{}", cfg.dm_max))
            .with_param("n_dm_trials", format!("{}", cfg.n_dm_trials))
            .with_param("threshold_snr", format!("{}", cfg.search.threshold_snr))
            .with_param("max_harmonics", format!("{}", cfg.search.max_harmonics))
            .with_param("rfi_threshold", format!("{}", cfg.rfi_threshold))
            .with_input(format!("pointing/{pointing}/raw")),
    );

    PointingOutput {
        pointing,
        beams: beam_outputs,
        coincidences,
        confirmed,
        raw_bytes,
        product_bytes,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectra::{ObsConfig, PulsarParams};
    use crate::units::Dm;
    use sciflow_core::rng::Rng;
    use sciflow_core::version::CalDate;

    fn version() -> VersionId {
        VersionId::new("Dedisp", "Test_06", CalDate::new(2006, 1, 15).unwrap(), "CTC")
    }

    /// Seven beams of noise; a pulsar in beam 2; 60 Hz carrier in every
    /// beam; narrowband RFI in one channel of beam 0.
    fn pointing_data(seed: u64) -> Vec<DynamicSpectrum> {
        let cfg = ObsConfig::test_scale();
        let mut rng = Rng::seed_from_u64(seed);
        let mut beams: Vec<DynamicSpectrum> =
            (0..7).map(|_| DynamicSpectrum::noise(cfg, &mut rng)).collect();
        beams[2].inject_pulsar(&PulsarParams {
            dm: Dm(60.0),
            period_s: 0.128,
            width_s: 0.004,
            amplitude: 6.0,
            phase_s: 0.01,
        });
        for b in beams.iter_mut() {
            // 60 Hz carrier: a zero-DM periodic signal in all beams.
            b.inject_pulsar(&PulsarParams {
                dm: Dm(0.0),
                period_s: 1.0 / 60.0,
                width_s: 0.002,
                amplitude: 2.0,
                phase_s: 0.0,
            });
        }
        beams[0].inject_narrowband_rfi(17, 6.0);
        beams
    }

    #[test]
    fn pipeline_finds_the_pulsar_and_flags_the_carrier() {
        let beams = pointing_data(1234);
        let cfg = PipelineConfig { n_dm_trials: 16, dm_max: 150.0, ..PipelineConfig::default() };
        let out = process_pointing(1, &beams, &cfg, version());

        // The injected pulsar is confirmed.
        let pulsar = out
            .confirmed
            .iter()
            .find(|c| harmonically_related(c.candidate.freq_hz, 1.0 / 0.128, 0.02));
        assert!(pulsar.is_some(), "pulsar not confirmed: {:?}", out.confirmed);
        let pulsar = pulsar.unwrap();
        assert!(pulsar.fold_snr >= 4.0);
        // DM selectivity is weak for a 4 ms pulse over a 50 MHz band (the
        // differential delay across the test band is comparable to the pulse
        // width), so only require the DM to be on the ladder at all.
        assert!((0.0..=150.0).contains(&pulsar.candidate.dm.0), "dm {}", pulsar.candidate.dm.0);

        // The 60 Hz carrier is flagged terrestrial by beam coincidence.
        let carrier = out
            .coincidences
            .iter()
            .find(|bc| harmonically_related(bc.candidate.freq_hz, 60.0, 0.02));
        if let Some(carrier) = carrier {
            assert!(carrier.terrestrial, "carrier in {} beams not flagged", carrier.beams);
        }
        // And it is not among the confirmed celestial candidates.
        assert!(out.confirmed.iter().all(|c| !harmonically_related(
            c.candidate.freq_hz,
            60.0,
            0.005
        )));

        // The narrowband channel was excised in beam 0.
        assert!(out.beams[0].zapped_channels >= 1);

        // Data products are a tiny fraction of raw — the paper's "one to a
        // few percent" is an upper bound dominated by plots we don't write.
        let ratio = out.product_bytes as f64 / out.raw_bytes as f64;
        assert!(ratio < 0.05, "product ratio {ratio}");
        assert_eq!(out.raw_bytes, 7 * beams[0].config.volume_bytes());

        // Provenance captures the parameters.
        assert_eq!(out.provenance.len(), 1);
        assert!(out.provenance.canonical_strings().iter().any(|s| s.contains("dm_max")));
    }

    #[test]
    fn beam_processing_is_deterministic() {
        let beams = pointing_data(77);
        let cfg = PipelineConfig { n_dm_trials: 8, ..PipelineConfig::default() };
        let a = process_beam(0, &beams[0], &cfg);
        let b = process_beam(0, &beams[0], &cfg);
        assert_eq!(a.periodic, b.periodic);
        assert_eq!(a.zapped_channels, b.zapped_channels);
    }

    #[test]
    fn best_per_frequency_collapses_harmonics() {
        let mk = |f: f64, snr: f64| Candidate {
            dm: Dm(10.0),
            freq_hz: f,
            period_s: 1.0 / f,
            snr,
            harmonics: 1,
        };
        let kept = best_per_frequency(vec![mk(10.0, 5.0), mk(20.0, 7.0), mk(33.0, 6.0)]);
        // 10 and 20 Hz are harmonically related: keep the stronger (20 Hz).
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].freq_hz, 20.0);
    }
}
