//! Runs, events, particles: the CLEO data model.
//!
//! "Raw data are the detector response to the particle collision events
//! measured by the CLEO detector. They are stored in units known as runs. A
//! run is the set of records collected continuously over a period of time
//! (typically between 45 and 60 minutes), under (nominally) constant
//! detector conditions. A run worth analyzing typically comprises between
//! 15K and 300K particle collision events."

/// Species we track through generation, simulation and reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticleKind {
    Electron,
    Muon,
    Pion,
    Kaon,
    Proton,
    Photon,
}

impl ParticleKind {
    /// Electric charge magnitude sign convention: we only need whether the
    /// detector sees a curved track at all.
    pub fn charged(self) -> bool {
        !matches!(self, ParticleKind::Photon)
    }
}

/// A generated (truth-level) particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub kind: ParticleKind,
    /// Transverse momentum, GeV/c.
    pub pt_gev: f64,
    /// Azimuthal angle at production, radians in [0, 2π).
    pub phi: f64,
    /// Charge sign (−1, 0, +1).
    pub charge: i8,
}

/// One e⁺e⁻ collision event (truth level).
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionEvent {
    pub id: u64,
    pub particles: Vec<Particle>,
}

impl CollisionEvent {
    pub fn charged_multiplicity(&self) -> usize {
        self.particles.iter().filter(|p| p.charge != 0).count()
    }
}

/// A run: contiguous data taking under constant conditions.
#[derive(Debug, Clone)]
pub struct Run {
    pub number: u32,
    /// Data-taking length in minutes (paper: 45–60).
    pub duration_mins: u32,
    pub events: Vec<CollisionEvent>,
}

impl Run {
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Does this run match the paper's "worth analyzing" envelope when
    /// scaled by `scale` (tests use small scale factors)?
    pub fn within_paper_envelope(&self, scale: f64) -> bool {
        let lo = (15_000.0 * scale) as usize;
        let hi = (300_000.0 * scale) as usize;
        (45..=60).contains(&self.duration_mins) && (lo..=hi).contains(&self.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_properties() {
        assert!(ParticleKind::Pion.charged());
        assert!(!ParticleKind::Photon.charged());
    }

    #[test]
    fn multiplicity_counts_charges() {
        let ev = CollisionEvent {
            id: 1,
            particles: vec![
                Particle { kind: ParticleKind::Pion, pt_gev: 0.5, phi: 0.1, charge: 1 },
                Particle { kind: ParticleKind::Photon, pt_gev: 1.0, phi: 0.2, charge: 0 },
                Particle { kind: ParticleKind::Kaon, pt_gev: 0.8, phi: 0.3, charge: -1 },
            ],
        };
        assert_eq!(ev.charged_multiplicity(), 2);
    }

    #[test]
    fn run_envelope() {
        let mk = |mins: u32, n: usize| Run {
            number: 1,
            duration_mins: mins,
            events: (0..n).map(|i| CollisionEvent { id: i as u64, particles: vec![] }).collect(),
        };
        assert!(mk(50, 150).within_paper_envelope(0.01)); // 150–3000 window
        assert!(!mk(30, 150).within_paper_envelope(0.01));
        assert!(!mk(50, 10).within_paper_envelope(0.01));
    }
}
