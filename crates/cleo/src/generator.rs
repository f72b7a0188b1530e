//! The physics generator: synthetic e⁺e⁻ collision events.
//!
//! Substitutes for CESR beam collisions. What downstream code depends on is
//! the *structure* — charged multiplicity, momentum spectra, species mix —
//! all of which are parametric here, with ground truth retained for
//! reconstruction-efficiency tests.

use sciflow_core::rng::Rng;

use crate::event::{CollisionEvent, Particle, ParticleKind, Run};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Mean charged multiplicity per event (CLEO-c era: ~5–10).
    pub mean_charged: f64,
    /// Mean photons per event.
    pub mean_neutral: f64,
    /// Exponential pt scale, GeV/c.
    pub pt_scale: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { mean_charged: 6.0, mean_neutral: 3.0, pt_scale: 0.6 }
    }
}

/// Small Poisson sampler (Knuth) — fine for the means used here.
fn poisson(rng: &mut Rng, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // mean pathologically large; cap rather than spin
        }
    }
}

fn species(rng: &mut Rng) -> ParticleKind {
    // Rough hadronic mix: mostly pions, some kaons, few leptons/protons.
    match rng.gen_range(0..100u32) {
        0..=64 => ParticleKind::Pion,
        65..=79 => ParticleKind::Kaon,
        80..=87 => ParticleKind::Electron,
        88..=95 => ParticleKind::Muon,
        _ => ParticleKind::Proton,
    }
}

/// Generate one collision event.
pub fn generate_event(id: u64, cfg: &GeneratorConfig, rng: &mut Rng) -> CollisionEvent {
    let n_charged = poisson(rng, cfg.mean_charged).max(1);
    let n_neutral = poisson(rng, cfg.mean_neutral);
    let mut particles = Vec::with_capacity(n_charged + n_neutral);
    for _ in 0..n_charged {
        let kind = species(rng);
        particles.push(Particle {
            kind,
            pt_gev: -cfg.pt_scale * (1.0 - rng.gen::<f64>()).ln() + 0.05,
            phi: rng.gen::<f64>() * std::f64::consts::TAU,
            charge: if rng.gen::<bool>() { 1 } else { -1 },
        });
    }
    for _ in 0..n_neutral {
        particles.push(Particle {
            kind: ParticleKind::Photon,
            pt_gev: -cfg.pt_scale * (1.0 - rng.gen::<f64>()).ln() + 0.02,
            phi: rng.gen::<f64>() * std::f64::consts::TAU,
            charge: 0,
        });
    }
    CollisionEvent { id, particles }
}

/// Generate a run of `n_events` with a duration drawn from the paper's
/// 45–60 minute window.
pub fn generate_run(number: u32, n_events: usize, cfg: &GeneratorConfig, rng: &mut Rng) -> Run {
    let duration = rng.gen_range(45..=60);
    let events =
        (0..n_events).map(|i| generate_event((number as u64) << 32 | i as u64, cfg, rng)).collect();
    Run { number, duration_mins: duration, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_matches_configuration() {
        let mut rng = Rng::seed_from_u64(1);
        let cfg = GeneratorConfig::default();
        let events: Vec<CollisionEvent> =
            (0..500).map(|i| generate_event(i, &cfg, &mut rng)).collect();
        let mean: f64 = events.iter().map(|e| e.charged_multiplicity() as f64).sum::<f64>()
            / events.len() as f64;
        assert!((mean - cfg.mean_charged).abs() < 0.5, "mean multiplicity {mean}");
    }

    #[test]
    fn pt_spectrum_is_positive_and_roughly_exponential() {
        let mut rng = Rng::seed_from_u64(2);
        let cfg = GeneratorConfig::default();
        let ev = generate_event(0, &cfg, &mut rng);
        assert!(ev.particles.iter().all(|p| p.pt_gev > 0.0));
        let mut pts: Vec<f64> = Vec::new();
        for i in 0..300 {
            pts.extend(generate_event(i, &cfg, &mut rng).particles.iter().map(|p| p.pt_gev));
        }
        let mean = pts.iter().sum::<f64>() / pts.len() as f64;
        assert!((mean - cfg.pt_scale).abs() < 0.2, "mean pt {mean}");
    }

    #[test]
    fn runs_have_paper_durations_and_unique_ids() {
        let mut rng = Rng::seed_from_u64(3);
        let run = generate_run(201_388, 200, &GeneratorConfig::default(), &mut rng);
        assert!((45..=60).contains(&run.duration_mins));
        assert_eq!(run.event_count(), 200);
        let mut ids: Vec<u64> = run.events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "event ids are unique");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::default();
        let a = generate_run(1, 50, &cfg, &mut Rng::seed_from_u64(9));
        let b = generate_run(1, 50, &cfg, &mut Rng::seed_from_u64(9));
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn every_event_has_a_charged_track() {
        // The detector trigger requires at least one charged track.
        let mut rng = Rng::seed_from_u64(4);
        for i in 0..100 {
            let ev = generate_event(i, &GeneratorConfig::default(), &mut rng);
            assert!(ev.charged_multiplicity() >= 1);
        }
    }
}
