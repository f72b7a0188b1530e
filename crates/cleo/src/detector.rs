//! The detector simulation: truth particles → wire hits.
//!
//! Stands in for the CLEO drift chamber and for the Monte-Carlo detector
//! response ("data from Monte Carlo simulations of the detector response").
//! The model: concentric wire layers; each charged particle leaves one hit
//! per layer at an azimuth that drifts with 1/pt curvature; hits are smeared
//! and noise hits are sprinkled in. Reconstruction (the inverse problem)
//! lives in [`crate::reconstruction`].

use sciflow_core::rng::Rng;

use crate::event::CollisionEvent;

/// Geometry and noise model.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    pub n_layers: usize,
    pub wires_per_layer: usize,
    /// Azimuthal hit smearing (σ, radians).
    pub phi_smear: f64,
    /// Mean random noise hits per event.
    pub noise_hits: f64,
    /// Curvature scale: azimuth advance per layer for a 1 GeV track, rad.
    pub curvature_per_layer: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            n_layers: 16,
            wires_per_layer: 240,
            phi_smear: 0.004,
            noise_hits: 3.0,
            curvature_per_layer: 0.02,
        }
    }
}

/// One wire hit: the raw datum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub layer: u16,
    pub wire: u16,
    /// Drift-time proxy (sub-wire azimuth residual, radians).
    pub drift: f32,
}

/// The detector's raw response to one event.
#[derive(Debug, Clone)]
pub struct DetectorResponse {
    pub event_id: u64,
    pub hits: Vec<Hit>,
}

impl DetectorResponse {
    /// Raw size: hits at 8 bytes each plus a 32-byte header — the unit the
    /// 90 TB accounting is built from.
    pub fn raw_bytes(&self) -> u64 {
        32 + 8 * self.hits.len() as u64
    }
}

/// Azimuth of the hit left by a track of (phi, pt, charge) on `layer`.
pub(crate) fn track_phi_at_layer(
    phi0: f64,
    pt_gev: f64,
    charge: i8,
    layer: usize,
    cfg: &DetectorConfig,
) -> f64 {
    // Lower pt → stronger curvature; charge sets the bend direction.
    let bend = charge as f64 * cfg.curvature_per_layer * (layer as f64 + 1.0) / pt_gev.max(0.05);
    (phi0 + bend).rem_euclid(std::f64::consts::TAU)
}

/// Simulate the detector response to one event.
pub fn simulate_event(
    event: &CollisionEvent,
    cfg: &DetectorConfig,
    rng: &mut Rng,
) -> DetectorResponse {
    let wire_pitch = std::f64::consts::TAU / cfg.wires_per_layer as f64;
    let mut hits = Vec::new();
    for p in &event.particles {
        if p.charge == 0 {
            continue; // photons leave no drift-chamber hits
        }
        for layer in 0..cfg.n_layers {
            // Low-momentum tracks range out before the outer layers.
            if p.pt_gev < 0.1 && layer > cfg.n_layers / 2 {
                break;
            }
            let smear = rng.gauss() as f64 * cfg.phi_smear;
            let phi = (track_phi_at_layer(p.phi, p.pt_gev, p.charge, layer, cfg) + smear)
                .rem_euclid(std::f64::consts::TAU);
            let wire = (phi / wire_pitch) as usize % cfg.wires_per_layer;
            let drift = (phi - (wire as f64 + 0.5) * wire_pitch) as f32;
            hits.push(Hit { layer: layer as u16, wire: wire as u16, drift });
        }
    }
    // Random noise hits.
    let n_noise = (cfg.noise_hits * (0.5 + rng.gen::<f64>())).round() as usize;
    for _ in 0..n_noise {
        hits.push(Hit {
            layer: rng.gen_range(0..cfg.n_layers) as u16,
            wire: rng.gen_range(0..cfg.wires_per_layer) as u16,
            drift: (rng.gen::<f32>() - 0.5) * wire_pitch as f32,
        });
    }
    DetectorResponse { event_id: event.id, hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Particle, ParticleKind};
    use crate::generator::{generate_event, GeneratorConfig};

    fn one_track_event(pt: f64, phi: f64, charge: i8) -> CollisionEvent {
        CollisionEvent {
            id: 7,
            particles: vec![Particle { kind: ParticleKind::Pion, pt_gev: pt, phi, charge }],
        }
    }

    #[test]
    fn charged_track_hits_every_layer() {
        let cfg = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(1);
        let resp = simulate_event(&one_track_event(1.0, 0.5, 1), &cfg, &mut rng);
        assert_eq!(resp.hits.len(), cfg.n_layers);
        let mut layers: Vec<u16> = resp.hits.iter().map(|h| h.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        assert_eq!(layers.len(), cfg.n_layers);
    }

    #[test]
    fn photons_leave_no_hits() {
        let cfg = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let ev = CollisionEvent {
            id: 1,
            particles: vec![Particle {
                kind: ParticleKind::Photon,
                pt_gev: 1.0,
                phi: 0.0,
                charge: 0,
            }],
        };
        let mut rng = Rng::seed_from_u64(2);
        assert!(simulate_event(&ev, &cfg, &mut rng).hits.is_empty());
    }

    #[test]
    fn curvature_depends_on_charge_and_pt() {
        let cfg = DetectorConfig::default();
        let outer = cfg.n_layers - 1;
        let plus = track_phi_at_layer(1.0, 0.5, 1, outer, &cfg);
        let minus = track_phi_at_layer(1.0, 0.5, -1, outer, &cfg);
        let stiff = track_phi_at_layer(1.0, 5.0, 1, outer, &cfg);
        assert!(plus > 1.0 && minus < 1.0, "bend splits by charge");
        assert!((stiff - 1.0).abs() < (plus - 1.0).abs(), "high pt bends less");
    }

    #[test]
    fn soft_tracks_range_out() {
        let cfg = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(3);
        let resp = simulate_event(&one_track_event(0.08, 0.5, 1), &cfg, &mut rng);
        assert!(resp.hits.len() <= cfg.n_layers / 2 + 1);
    }

    #[test]
    fn raw_bytes_scale_with_hits() {
        let mut rng = Rng::seed_from_u64(4);
        let ev = generate_event(0, &GeneratorConfig::default(), &mut rng);
        let resp = simulate_event(&ev, &DetectorConfig::default(), &mut rng);
        assert_eq!(resp.raw_bytes(), 32 + 8 * resp.hits.len() as u64);
        assert!(resp.raw_bytes() > 32);
    }

    #[test]
    fn noise_level_is_respected() {
        let cfg = DetectorConfig { noise_hits: 50.0, ..DetectorConfig::default() };
        let ev = CollisionEvent { id: 0, particles: vec![] };
        let mut rng = Rng::seed_from_u64(5);
        let mean: f64 =
            (0..50).map(|_| simulate_event(&ev, &cfg, &mut rng).hits.len() as f64).sum::<f64>()
                / 50.0;
        assert!((mean - 50.0).abs() < 10.0, "noise mean {mean}");
    }
}
