//! Physics analysis jobs.
//!
//! "The processes for reconstruction and physics analysis require iterative
//! refinement." An analysis job here is a two-pass selection: pass one scans
//! the *hot* ASUs of every event (cheap, thanks to the column partitioning);
//! pass two reads *warm* ASUs only for the events that survived. Reads are
//! charged to the store so the I/O benefit is measurable, and the job's
//! provenance records exactly which versions and parameters it used.

use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::version::VersionId;

use crate::asu::AsuKind;
use crate::partition::{hot_kinds, PartitionedStore};
use crate::postrecon::PostReconValues;
use crate::reconstruction::ReconstructedEvent;

/// An analysis selection.
#[derive(Debug, Clone)]
pub struct AnalysisJob {
    pub name: String,
    /// Pass 1: minimum reconstructed track multiplicity (hot: TrackList).
    pub min_tracks: usize,
    /// Pass 2: minimum event quality (warm: post-recon values).
    pub min_quality: f64,
}

/// The outcome of a job.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    pub job: String,
    /// Events passing pass 1.
    pub pass1_selected: Vec<u64>,
    /// Events passing both passes.
    pub selected: Vec<u64>,
    /// Bytes read from the store across both passes.
    pub bytes_read: u64,
    pub provenance: ProvenanceRecord,
}

/// Run a two-pass analysis over one run's events.
///
/// `recon`, `post` and the store's events must be index-aligned (they come
/// from the same pipeline invocation).
pub fn run_analysis(
    store: &mut PartitionedStore,
    recon: &[ReconstructedEvent],
    post: &[PostReconValues],
    job: &AnalysisJob,
    version: VersionId,
    parent: &ProvenanceRecord,
) -> AnalysisResult {
    assert_eq!(store.len(), recon.len(), "store and reconstruction must align");
    assert_eq!(recon.len(), post.len(), "reconstruction and post-recon must align");

    let before = store.stats.bytes_read;
    let hot = hot_kinds();

    // Pass 1: hot-only scan of every event.
    let mut pass1 = Vec::new();
    for (i, r) in recon.iter().enumerate() {
        store.read(i, &hot);
        if r.tracks.len() >= job.min_tracks {
            pass1.push((i, r.event_id));
        }
    }

    // Pass 2: warm refinement on survivors only.
    let warm: Vec<AsuKind> =
        vec![AsuKind::TrackFit, AsuKind::ParticleId, AsuKind::MomentumScale, AsuKind::VertexInfo];
    let mut selected = Vec::new();
    for &(i, event_id) in &pass1 {
        store.read(i, &warm);
        if post[i].quality >= job.min_quality {
            selected.push(event_id);
        }
    }

    let provenance = parent.derive(
        ProvenanceStep::new("PhysicsAnalysis", version)
            .with_param("job", job.name.clone())
            .with_param("min_tracks", job.min_tracks.to_string())
            .with_param("min_quality", format!("{}", job.min_quality))
            .with_input("recon+postrecon"),
    );

    AnalysisResult {
        job: job.name.clone(),
        pass1_selected: pass1.into_iter().map(|(_, id)| id).collect(),
        selected,
        bytes_read: store.stats.bytes_read - before,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asu::decompose;
    use crate::detector::{simulate_event, DetectorConfig};
    use crate::generator::{generate_run, GeneratorConfig};
    use crate::partition::{default_tiering, RowStore};
    use crate::postrecon::compute_post_recon;
    use crate::reconstruction::{reconstruct, ReconConfig};
    use sciflow_core::rng::Rng;
    use sciflow_core::version::CalDate;

    struct Fixture {
        store: PartitionedStore,
        row: RowStore,
        recon: Vec<ReconstructedEvent>,
        post: Vec<PostReconValues>,
    }

    fn fixture(n_events: usize) -> Fixture {
        let mut rng = Rng::seed_from_u64(11);
        let det = DetectorConfig::default();
        let run = generate_run(1, n_events, &GeneratorConfig::default(), &mut rng);
        let mut recon = Vec::new();
        let mut asus = Vec::new();
        for ev in &run.events {
            let raw = simulate_event(ev, &det, &mut rng);
            let r = reconstruct(&raw, &det, &ReconConfig::default());
            asus.push((raw, r.clone()));
            recon.push(r);
        }
        let post_run = compute_post_recon(&recon);
        let events: Vec<_> = asus
            .iter()
            .zip(&post_run.per_event)
            .map(|((raw, r), p)| decompose(raw, r, p))
            .collect();
        Fixture {
            store: PartitionedStore::load(events.clone(), default_tiering),
            row: RowStore::load(events),
            recon,
            post: post_run.per_event,
        }
    }

    fn version() -> VersionId {
        VersionId::new("Skim", "May01_04", CalDate::new(2004, 5, 1).unwrap(), "Cornell")
    }

    #[test]
    fn selection_respects_both_passes() {
        let mut f = fixture(40);
        let job = AnalysisJob { name: "multihadron".into(), min_tracks: 4, min_quality: 0.5 };
        let result = run_analysis(
            &mut f.store,
            &f.recon,
            &f.post,
            &job,
            version(),
            &ProvenanceRecord::new(),
        );
        assert!(result.selected.len() <= result.pass1_selected.len());
        for id in &result.selected {
            let idx = f.recon.iter().position(|r| r.event_id == *id).unwrap();
            assert!(f.recon[idx].tracks.len() >= 4);
            assert!(f.post[idx].quality >= 0.5);
        }
        // Provenance carries the cuts.
        let strings = result.provenance.canonical_strings();
        assert!(strings.iter().any(|s| s.contains("min_tracks=4")));
    }

    #[test]
    fn partitioned_analysis_reads_less_than_row_layout() {
        let mut f = fixture(40);
        let job = AnalysisJob { name: "skim".into(), min_tracks: 4, min_quality: 0.3 };
        let result = run_analysis(
            &mut f.store,
            &f.recon,
            &f.post,
            &job,
            version(),
            &ProvenanceRecord::new(),
        );
        // Row layout cost: full event per pass-1 read plus full event per
        // pass-2 read.
        let hot = hot_kinds();
        for i in 0..f.recon.len() {
            f.row.read(i, &hot);
        }
        for id in &result.pass1_selected {
            let idx = f.recon.iter().position(|r| r.event_id == *id).unwrap();
            f.row.read(idx, &hot);
        }
        assert!(
            f.row.stats.bytes_read > 3 * result.bytes_read,
            "row {} vs partitioned {}",
            f.row.stats.bytes_read,
            result.bytes_read
        );
    }

    #[test]
    fn tighter_cuts_select_fewer_events() {
        let mut f1 = fixture(40);
        let loose = run_analysis(
            &mut f1.store,
            &f1.recon,
            &f1.post,
            &AnalysisJob { name: "loose".into(), min_tracks: 2, min_quality: 0.0 },
            version(),
            &ProvenanceRecord::new(),
        );
        let mut f2 = fixture(40);
        let tight = run_analysis(
            &mut f2.store,
            &f2.recon,
            &f2.post,
            &AnalysisJob { name: "tight".into(), min_tracks: 6, min_quality: 0.9 },
            version(),
            &ProvenanceRecord::new(),
        );
        assert!(tight.selected.len() < loose.selected.len());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_inputs_panic() {
        let mut f = fixture(5);
        let job = AnalysisJob { name: "x".into(), min_tracks: 1, min_quality: 0.0 };
        run_analysis(
            &mut f.store,
            &f.recon[..3],
            &f.post,
            &job,
            version(),
            &ProvenanceRecord::new(),
        );
    }
}
