//! Property-based tests for the CLEO pipeline invariants: detector/
//! reconstruction consistency, ASU accounting, partition-read identities,
//! and post-reconstruction scale invariants.

use sciflow_core::rng::Rng;

use sciflow_cleo::asu::{decompose, AsuKind};
use sciflow_cleo::detector::{simulate_event, DetectorConfig};
use sciflow_cleo::event::{CollisionEvent, Particle, ParticleKind};
use sciflow_cleo::generator::{generate_event, GeneratorConfig};
use sciflow_cleo::partition::{default_tiering, hot_kinds, PartitionedStore, RowStore};
use sciflow_cleo::postrecon::compute_post_recon;
use sciflow_cleo::reconstruction::{reconstruct, ReconConfig};
use sciflow_testkit::check;

/// Hit counts: every charged particle leaves between 1 and n_layers
/// hits; photons leave none (noise excluded).
#[test]
fn hit_counts_bounded() {
    check("hit_counts_bounded", 64, |g| {
        let (seed, n_charged, n_photons) = (g.any::<u64>(), g.range(0usize..8), g.range(0usize..5));
        let det = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(seed);
        let mut particles = Vec::new();
        for i in 0..n_charged {
            particles.push(Particle {
                kind: ParticleKind::Pion,
                pt_gev: 0.3 + 0.2 * i as f64,
                phi: i as f64,
                charge: if i % 2 == 0 { 1 } else { -1 },
            });
        }
        for i in 0..n_photons {
            particles.push(Particle {
                kind: ParticleKind::Photon,
                pt_gev: 1.0,
                phi: i as f64 * 0.5,
                charge: 0,
            });
        }
        let ev = CollisionEvent { id: 1, particles };
        let resp = simulate_event(&ev, &det, &mut rng);
        assert!(resp.hits.len() <= n_charged * det.n_layers);
        if n_charged > 0 {
            assert!(!resp.hits.is_empty());
        } else {
            assert!(resp.hits.is_empty());
        }
        for h in &resp.hits {
            assert!((h.layer as usize) < det.n_layers);
            assert!((h.wire as usize) < det.wires_per_layer);
        }
    });
}

/// Reconstruction never invents more tracks than the event has charged
/// particles (plus at most one noise ghost) on clean events.
#[test]
fn reconstruction_does_not_over_count() {
    check("reconstruction_does_not_over_count", 64, |g| {
        let seed = g.any::<u64>();
        let det = DetectorConfig { noise_hits: 0.0, ..DetectorConfig::default() };
        let mut rng = Rng::seed_from_u64(seed);
        let ev = generate_event(seed, &GeneratorConfig::default(), &mut rng);
        let resp = simulate_event(&ev, &det, &mut rng);
        let rec = reconstruct(&resp, &det, &ReconConfig::default());
        let charged = ev.particles.iter().filter(|p| p.charge != 0).count();
        assert!(
            rec.tracks.len() <= charged + 1,
            "found {} tracks for {charged} charged",
            rec.tracks.len()
        );
        // Conservation of hits: assigned + unassigned = total.
        let assigned: usize = rec.tracks.iter().map(|t| t.n_hits).sum();
        assert_eq!(assigned + rec.unassigned_hits, resp.hits.len());
    });
}

/// ASU decomposition: all 14 kinds present, byte totals additive, and
/// reading all kinds costs the same in both layouts.
#[test]
fn asu_accounting_is_consistent() {
    check("asu_accounting_is_consistent", 64, |g| {
        let seed = g.any::<u64>();
        let det = DetectorConfig::default();
        let mut rng = Rng::seed_from_u64(seed);
        let ev = generate_event(seed, &GeneratorConfig::default(), &mut rng);
        let raw = simulate_event(&ev, &det, &mut rng);
        let rec = reconstruct(&raw, &det, &ReconConfig::default());
        let post = compute_post_recon(std::slice::from_ref(&rec));
        let asus = decompose(&raw, &rec, &post.per_event[0]);
        assert_eq!(asus.asus.len(), AsuKind::ALL.len());
        let sum: u64 = AsuKind::ALL.iter().map(|&k| asus.bytes_of(&[k])).sum();
        assert_eq!(sum, asus.total_bytes());

        let all: Vec<AsuKind> = AsuKind::ALL.to_vec();
        let mut row = RowStore::load(vec![asus.clone()]);
        let mut col = PartitionedStore::load(vec![asus], default_tiering);
        row.read(0, &all);
        col.read(0, &all);
        assert_eq!(row.stats.bytes_read, col.stats.bytes_read);
        // Hot-only read is never more expensive than a full read.
        let mut col2 = PartitionedStore::load(
            vec![decompose(&raw, &rec, &post.per_event[0])],
            default_tiering,
        );
        col2.read(0, &hot_kinds());
        assert!(col2.stats.bytes_read <= col.stats.bytes_read);
    });
}

/// Post-recon momentum scales average to ~1 over the run (they are
/// relative to the run mean) for any event set with tracks.
#[test]
fn momentum_scales_center_on_unity() {
    check("momentum_scales_center_on_unity", 64, |g| {
        let seeds = g.vec(3..10, |g| g.any::<u64>());
        let det = DetectorConfig::default();
        let gen = GeneratorConfig::default();
        let mut recon = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(seed);
            let ev = generate_event(i as u64, &gen, &mut rng);
            let raw = simulate_event(&ev, &det, &mut rng);
            recon.push(reconstruct(&raw, &det, &ReconConfig::default()));
        }
        g.assume(recon.iter().any(|r| !r.tracks.is_empty()));
        let post = compute_post_recon(&recon);
        let with_tracks: Vec<f64> = recon
            .iter()
            .zip(&post.per_event)
            .filter(|(r, _)| !r.tracks.is_empty())
            .map(|(_, p)| p.momentum_scale)
            .collect();
        g.assume(!with_tracks.is_empty());
        // Scales are positive and the track-weighted structure keeps them
        // within a sane band.
        for &s in &with_tracks {
            assert!(s > 0.0 && s < 25.0, "scale {s}");
        }
    });
}
