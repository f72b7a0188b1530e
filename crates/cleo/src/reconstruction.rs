//! Event reconstruction: wire hits → particle trajectories.
//!
//! "A typical example is the identification of particle trajectories from
//! the energy levels recorded by measure wires." The model detector leaves
//! hits on a line in (layer, azimuth) space with slope ∝ charge/pt, so
//! track finding is a Hough-style vote over (intercept, slope) followed by a
//! least-squares fit and hit removal.

use crate::detector::{DetectorConfig, DetectorResponse, Hit};

/// A reconstructed trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RecTrack {
    /// Extrapolated azimuth at the interaction point, radians.
    pub phi0: f64,
    /// Azimuth advance per layer (signed).
    pub slope: f64,
    /// Estimated transverse momentum from the bend.
    pub pt_gev: f64,
    pub charge: i8,
    pub n_hits: usize,
    /// RMS residual of the fit, radians.
    pub residual: f64,
}

/// A reconstructed event.
#[derive(Debug, Clone)]
pub struct ReconstructedEvent {
    pub event_id: u64,
    pub tracks: Vec<RecTrack>,
    /// Hits not attached to any track (noise estimate).
    pub unassigned_hits: usize,
}

/// Reconstruction tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReconConfig {
    /// Minimum hits to accept a track.
    pub min_hits: usize,
    /// Residual tolerance when attaching hits to a candidate, radians.
    pub tolerance: f64,
    /// Hough bins over phi0.
    pub phi_bins: usize,
    /// Hough bins over slope, spanning ±max_slope.
    pub slope_bins: usize,
    pub max_slope: f64,
}

impl Default for ReconConfig {
    fn default() -> Self {
        ReconConfig { min_hits: 6, tolerance: 0.02, phi_bins: 256, slope_bins: 41, max_slope: 0.5 }
    }
}

/// Wrap an angular difference into (−π, π].
fn wrap(d: f64) -> f64 {
    let mut d = d.rem_euclid(std::f64::consts::TAU);
    if d > std::f64::consts::PI {
        d -= std::f64::consts::TAU;
    }
    d
}

/// Azimuth of a hit from its wire index and drift residual.
fn hit_phi(h: &Hit, det: &DetectorConfig) -> f64 {
    let pitch = std::f64::consts::TAU / det.wires_per_layer as f64;
    ((h.wire as f64 + 0.5) * pitch + h.drift as f64).rem_euclid(std::f64::consts::TAU)
}

/// Least-squares line fit phi(layer) = phi0 + slope·(layer+1), circular in
/// phi around a reference.
fn fit_line(hits: &[(f64, f64)]) -> (f64, f64, f64) {
    // hits: (x = layer+1, phi unwrapped near reference)
    let n = hits.len() as f64;
    let sx: f64 = hits.iter().map(|h| h.0).sum();
    let sy: f64 = hits.iter().map(|h| h.1).sum();
    let sxx: f64 = hits.iter().map(|h| h.0 * h.0).sum();
    let sxy: f64 = hits.iter().map(|h| h.0 * h.1).sum();
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() < 1e-12 { 0.0 } else { (n * sxy - sx * sy) / denom };
    let phi0 = (sy - slope * sx) / n;
    let rss: f64 = hits
        .iter()
        .map(|h| {
            let r = h.1 - (phi0 + slope * h.0);
            r * r
        })
        .sum();
    (phi0, slope, (rss / n).sqrt())
}

/// Reconstruct one event.
pub fn reconstruct(
    response: &DetectorResponse,
    det: &DetectorConfig,
    cfg: &ReconConfig,
) -> ReconstructedEvent {
    let mut remaining: Vec<Hit> = response.hits.clone();
    let mut tracks = Vec::new();

    loop {
        if remaining.len() < cfg.min_hits {
            break;
        }
        // Hough vote over (phi0, slope) from hit pairs.
        let mut votes = vec![0u32; cfg.phi_bins * cfg.slope_bins];
        let phis: Vec<(f64, f64)> =
            remaining.iter().map(|h| (h.layer as f64 + 1.0, hit_phi(h, det))).collect();
        for i in 0..phis.len() {
            for j in (i + 1)..phis.len() {
                let (x1, p1) = phis[i];
                let (x2, p2) = phis[j];
                if (x1 - x2).abs() < 0.5 {
                    continue; // same layer
                }
                let slope = wrap(p2 - p1) / (x2 - x1);
                if slope.abs() > cfg.max_slope {
                    continue;
                }
                let phi0 = (p1 - slope * x1).rem_euclid(std::f64::consts::TAU);
                let pb =
                    ((phi0 / std::f64::consts::TAU) * cfg.phi_bins as f64) as usize % cfg.phi_bins;
                let sb = (((slope + cfg.max_slope) / (2.0 * cfg.max_slope))
                    * (cfg.slope_bins - 1) as f64)
                    .round() as usize;
                votes[pb * cfg.slope_bins + sb.min(cfg.slope_bins - 1)] += 1;
            }
        }
        let (best_bin, &best_votes) =
            votes.iter().enumerate().max_by_key(|(_, &v)| v).expect("votes non-empty");
        // A track with k hits casts k(k−1)/2 votes.
        let need = (cfg.min_hits * (cfg.min_hits - 1) / 2) as u32;
        if best_votes < need {
            break;
        }
        let pb = best_bin / cfg.slope_bins;
        let sb = best_bin % cfg.slope_bins;
        let phi0_seed = (pb as f64 + 0.5) / cfg.phi_bins as f64 * std::f64::consts::TAU;
        let slope_seed =
            -cfg.max_slope + (sb as f64) / (cfg.slope_bins - 1) as f64 * 2.0 * cfg.max_slope;

        // Attach hits near the seed line, then refit iteratively: the Hough
        // bins quantise the slope, so the seed's prediction error grows with
        // layer — a couple of refit rounds recover the outer hits.
        let mut seed = (phi0_seed, slope_seed);
        let mut attached: Vec<usize> = Vec::new();
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for round in 0..3 {
            attached.clear();
            pts.clear();
            // First round tolerates the quantisation error at inner layers;
            // later rounds use the fitted line with a tight window.
            let window = if round == 0 { cfg.tolerance * 3.0 } else { cfg.tolerance * 4.0 };
            for (idx, &(x, p)) in phis.iter().enumerate() {
                let predicted = seed.0 + seed.1 * x;
                let r = wrap(p - predicted);
                // Inner layers only on the seed round (prediction degrades
                // with x until the first fit).
                if round == 0 && x > 8.0 {
                    continue;
                }
                if r.abs() <= window {
                    attached.push(idx);
                    pts.push((x, predicted + r)); // unwrapped near the line
                }
            }
            if pts.len() < 3 {
                break;
            }
            let (phi0, slope, _) = fit_line(&pts);
            seed = (phi0, slope);
        }
        if attached.len() < cfg.min_hits {
            break;
        }
        let (phi0, slope, residual) = fit_line(&pts);
        let pt = det.curvature_per_layer / slope.abs().max(1e-6);
        tracks.push(RecTrack {
            phi0: phi0.rem_euclid(std::f64::consts::TAU),
            slope,
            pt_gev: pt,
            charge: if slope >= 0.0 { 1 } else { -1 },
            n_hits: attached.len(),
            residual,
        });
        // Remove attached hits (reverse order keeps indices valid).
        for &idx in attached.iter().rev() {
            remaining.swap_remove(idx);
        }
    }

    ReconstructedEvent { event_id: response.event_id, tracks, unassigned_hits: remaining.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{simulate_event, DetectorConfig};
    use crate::event::{CollisionEvent, Particle, ParticleKind};
    use crate::generator::{generate_event, GeneratorConfig};
    use sciflow_core::rng::Rng;

    fn event_with_tracks(tracks: &[(f64, f64, i8)]) -> CollisionEvent {
        CollisionEvent {
            id: 1,
            particles: tracks
                .iter()
                .map(|&(pt, phi, charge)| Particle {
                    kind: ParticleKind::Pion,
                    pt_gev: pt,
                    phi,
                    charge,
                })
                .collect(),
        }
    }

    #[test]
    fn finds_a_single_clean_track() {
        let det = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(1);
        let resp = simulate_event(&event_with_tracks(&[(1.0, 1.2, 1)]), &det, &mut rng);
        let rec = reconstruct(&resp, &det, &ReconConfig::default());
        assert_eq!(rec.tracks.len(), 1);
        let t = &rec.tracks[0];
        assert!(wrap(t.phi0 - 1.2).abs() < 0.05, "phi0 {}", t.phi0);
        assert_eq!(t.charge, 1);
        assert!((t.pt_gev - 1.0).abs() / 1.0 < 0.3, "pt {}", t.pt_gev);
        assert_eq!(rec.unassigned_hits, 0);
    }

    #[test]
    fn separates_multiple_tracks() {
        let det = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(2);
        let truth = [(1.5, 0.3, 1), (0.8, 2.0, -1), (2.5, 4.5, 1)];
        let resp = simulate_event(&event_with_tracks(&truth), &det, &mut rng);
        let rec = reconstruct(&resp, &det, &ReconConfig::default());
        assert_eq!(rec.tracks.len(), 3);
        for &(_, phi, charge) in &truth {
            let matched = rec
                .tracks
                .iter()
                .find(|t| wrap(t.phi0 - phi).abs() < 0.1)
                .unwrap_or_else(|| panic!("no track near phi {phi}"));
            assert_eq!(matched.charge, charge);
        }
    }

    #[test]
    fn efficiency_on_generated_events() {
        let det = DetectorConfig::default();
        let gen_cfg = GeneratorConfig::default();
        let rec_cfg = ReconConfig::default();
        let mut rng = Rng::seed_from_u64(3);
        let mut found = 0usize;
        let mut findable = 0usize;
        for i in 0..30 {
            let ev = generate_event(i, &gen_cfg, &mut rng);
            let resp = simulate_event(&ev, &det, &mut rng);
            let rec = reconstruct(&resp, &det, &rec_cfg);
            for p in ev.particles.iter().filter(|p| p.charge != 0 && p.pt_gev > 0.3) {
                findable += 1;
                if rec.tracks.iter().any(|t| wrap(t.phi0 - p.phi).abs() < 0.12) {
                    found += 1;
                }
            }
        }
        let eff = found as f64 / findable as f64;
        assert!(eff > 0.80, "tracking efficiency {eff} ({found}/{findable})");
    }

    #[test]
    fn noise_only_events_produce_no_tracks() {
        let det = DetectorConfig { noise_hits: 12.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(4);
        let resp = simulate_event(&CollisionEvent { id: 0, particles: vec![] }, &det, &mut rng);
        let rec = reconstruct(&resp, &det, &ReconConfig::default());
        assert!(rec.tracks.is_empty(), "ghost tracks from noise: {:?}", rec.tracks);
        assert_eq!(rec.unassigned_hits, resp.hits.len());
    }

    #[test]
    fn wrap_is_symmetric() {
        assert!((wrap(0.1) - 0.1).abs() < 1e-12);
        assert!((wrap(std::f64::consts::TAU + 0.1) - 0.1).abs() < 1e-12);
        assert!((wrap(-0.1) + 0.1).abs() < 1e-12);
        assert!(wrap(std::f64::consts::PI + 0.1) < 0.0);
    }

    #[test]
    fn tracks_near_phi_wraparound_are_found() {
        let det = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(5);
        let resp = simulate_event(&event_with_tracks(&[(1.0, 6.27, -1)]), &det, &mut rng);
        let rec = reconstruct(&resp, &det, &ReconConfig::default());
        assert_eq!(rec.tracks.len(), 1);
        assert!(wrap(rec.tracks[0].phi0 - 6.27).abs() < 0.08);
    }
}
