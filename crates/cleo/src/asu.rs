//! Atomic Storage Units (ASUs).
//!
//! "An atomic storage unit (ASU) is the smallest storable sub-object of an
//! event. An ASU will never be split into component objects for storage
//! purposes. ... There are typically a dozen ASUs per event in the
//! post-reconstruction data."
//!
//! Each event decomposes column-wise into typed ASUs; the hot/warm/cold
//! split in [`crate::partition`] operates on these kinds.

use crate::detector::DetectorResponse;
use crate::postrecon::PostReconValues;
use crate::reconstruction::ReconstructedEvent;

/// The ASU kinds of our event model — reconstruction plus a dozen
/// post-reconstruction kinds, mirroring the paper's granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsuKind {
    // Reconstruction-level.
    TrackList,
    HitBank,
    // Post-reconstruction (the "typically a dozen ASUs per event").
    TrackFit,
    ParticleId,
    EnergyClusters,
    VertexInfo,
    BeamSpot,
    TriggerBits,
    EventShape,
    MomentumScale,
    DeDxCalib,
    SkimFlags,
    QualityFlags,
    LuminosityWeight,
}

impl AsuKind {
    /// All kinds, reconstruction first.
    pub const ALL: [AsuKind; 14] = [
        AsuKind::TrackList,
        AsuKind::HitBank,
        AsuKind::TrackFit,
        AsuKind::ParticleId,
        AsuKind::EnergyClusters,
        AsuKind::VertexInfo,
        AsuKind::BeamSpot,
        AsuKind::TriggerBits,
        AsuKind::EventShape,
        AsuKind::MomentumScale,
        AsuKind::DeDxCalib,
        AsuKind::SkimFlags,
        AsuKind::QualityFlags,
        AsuKind::LuminosityWeight,
    ];

    /// The post-reconstruction subset.
    pub fn post_recon() -> impl Iterator<Item = AsuKind> {
        Self::ALL.iter().copied().filter(|k| !matches!(k, AsuKind::TrackList | AsuKind::HitBank))
    }

    pub fn name(self) -> &'static str {
        match self {
            AsuKind::TrackList => "track-list",
            AsuKind::HitBank => "hit-bank",
            AsuKind::TrackFit => "track-fit",
            AsuKind::ParticleId => "particle-id",
            AsuKind::EnergyClusters => "energy-clusters",
            AsuKind::VertexInfo => "vertex-info",
            AsuKind::BeamSpot => "beam-spot",
            AsuKind::TriggerBits => "trigger-bits",
            AsuKind::EventShape => "event-shape",
            AsuKind::MomentumScale => "momentum-scale",
            AsuKind::DeDxCalib => "dedx-calib",
            AsuKind::SkimFlags => "skim-flags",
            AsuKind::QualityFlags => "quality-flags",
            AsuKind::LuminosityWeight => "luminosity-weight",
        }
    }
}

/// One ASU: a kind plus its serialized size. (Payload bytes are synthetic;
/// sizes drive the storage experiments.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Asu {
    pub kind: AsuKind,
    pub bytes: u64,
}

/// All ASUs of one event.
#[derive(Debug, Clone)]
pub struct EventAsus {
    pub event_id: u64,
    pub asus: Vec<Asu>,
}

impl EventAsus {
    pub fn total_bytes(&self) -> u64 {
        self.asus.iter().map(|a| a.bytes).sum()
    }

    pub fn get(&self, kind: AsuKind) -> Option<Asu> {
        self.asus.iter().copied().find(|a| a.kind == kind)
    }

    pub fn bytes_of(&self, kinds: &[AsuKind]) -> u64 {
        self.asus.iter().filter(|a| kinds.contains(&a.kind)).map(|a| a.bytes).sum()
    }
}

/// Decompose a reconstructed event (plus its raw response and
/// post-reconstruction values) into ASUs.
///
/// Size model: small frequently-used summaries (tens of bytes), mid-size
/// per-track objects, and a large hit bank — matching "the hot data ...
/// are typically small compared with the less frequently accessed ASUs".
pub fn decompose(
    raw: &DetectorResponse,
    recon: &ReconstructedEvent,
    post: &PostReconValues,
) -> EventAsus {
    let n_tracks = recon.tracks.len() as u64;
    let asus = vec![
        Asu { kind: AsuKind::TrackList, bytes: 16 + 48 * n_tracks },
        Asu { kind: AsuKind::HitBank, bytes: raw.raw_bytes() },
        Asu { kind: AsuKind::TrackFit, bytes: 16 + 64 * n_tracks },
        Asu { kind: AsuKind::ParticleId, bytes: 8 + 12 * n_tracks },
        Asu { kind: AsuKind::EnergyClusters, bytes: 8 + 24 * n_tracks },
        Asu { kind: AsuKind::VertexInfo, bytes: 40 },
        Asu { kind: AsuKind::BeamSpot, bytes: 24 },
        Asu { kind: AsuKind::TriggerBits, bytes: 8 },
        Asu { kind: AsuKind::EventShape, bytes: 32 },
        Asu {
            kind: AsuKind::MomentumScale,
            bytes: 8 + (post.momentum_scale.abs() * 0.0) as u64 + 8,
        },
        Asu { kind: AsuKind::DeDxCalib, bytes: 16 },
        Asu { kind: AsuKind::SkimFlags, bytes: 4 },
        Asu { kind: AsuKind::QualityFlags, bytes: 4 },
        Asu { kind: AsuKind::LuminosityWeight, bytes: 8 },
    ];
    EventAsus { event_id: recon.event_id, asus }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{simulate_event, DetectorConfig};
    use crate::generator::{generate_event, GeneratorConfig};
    use crate::postrecon::compute_post_recon;
    use crate::reconstruction::{reconstruct, ReconConfig};
    use sciflow_core::rng::Rng;

    fn sample() -> EventAsus {
        let mut rng = Rng::seed_from_u64(1);
        let ev = generate_event(5, &GeneratorConfig::default(), &mut rng);
        let det = DetectorConfig::default();
        let raw = simulate_event(&ev, &det, &mut rng);
        let recon = reconstruct(&raw, &det, &ReconConfig::default());
        let post = compute_post_recon(std::slice::from_ref(&recon));
        decompose(&raw, &recon, &post.per_event[0])
    }

    #[test]
    fn a_dozen_post_recon_asus_per_event() {
        let asus = sample();
        let post_kinds: Vec<AsuKind> = AsuKind::post_recon().collect();
        assert_eq!(post_kinds.len(), 12, "paper: 'typically a dozen ASUs per event'");
        for k in post_kinds {
            assert!(asus.get(k).is_some(), "missing {k:?}");
        }
    }

    #[test]
    fn hit_bank_is_the_largest_asu() {
        let asus = sample();
        let hit_bank = asus.get(AsuKind::HitBank).unwrap().bytes;
        for a in &asus.asus {
            if a.kind != AsuKind::HitBank {
                assert!(hit_bank > a.bytes, "{:?} ({}) >= hit bank ({hit_bank})", a.kind, a.bytes);
            }
        }
        // And it is a large share of the event overall.
        assert!(hit_bank * 3 > asus.total_bytes(), "hit bank {hit_bank} of {}", asus.total_bytes());
    }

    #[test]
    fn small_summary_asus_are_small() {
        let asus = sample();
        for kind in [AsuKind::TriggerBits, AsuKind::SkimFlags, AsuKind::QualityFlags] {
            assert!(asus.get(kind).unwrap().bytes <= 8);
        }
    }

    #[test]
    fn bytes_of_selects_kinds() {
        let asus = sample();
        let pair = asus.bytes_of(&[AsuKind::TriggerBits, AsuKind::SkimFlags]);
        assert_eq!(pair, 12);
        assert_eq!(asus.bytes_of(&[]), 0);
    }

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = AsuKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AsuKind::ALL.len());
    }
}
