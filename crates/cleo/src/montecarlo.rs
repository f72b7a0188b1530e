//! Monte-Carlo production and the offsite → personal-store → merge path.
//!
//! "Currently we generate much of the CLEO simulated Monte-Carlo data
//! offsite. We are implementing a system where these data are stored in a
//! personal EventStore as they are produced, shipped to Cornell on USB
//! disks, and merged into the collaboration EventStore." [`produce_mc_run`]
//! generates the simulation; [`stage_into_personal_store`] registers it in a
//! disconnected personal store whose bytes can be shipped and merged with
//! [`sciflow_eventstore::merge_into`].

use sciflow_core::rng::Rng;

use sciflow_core::md5::md5;
use sciflow_core::version::CalDate;
use sciflow_eventstore::{EventStore, FileRecord, RunRange, StoreTier};

use crate::detector::{simulate_event, DetectorConfig, DetectorResponse};
use crate::event::CollisionEvent;
use crate::generator::{generate_run, GeneratorConfig};

/// One run's Monte-Carlo sample: truth plus simulated detector response.
#[derive(Debug)]
pub struct McSample {
    pub run_number: u32,
    pub truth: Vec<CollisionEvent>,
    pub responses: Vec<DetectorResponse>,
    /// Version label of the production software.
    pub version: String,
    pub site: String,
}

impl McSample {
    pub fn raw_bytes(&self) -> u64 {
        self.responses.iter().map(|r| r.raw_bytes()).sum()
    }
}

/// Generate MC "for each run": same generator and detector configuration as
/// the data run, but tagged as simulation and seeded deterministically from
/// the run number (reproducible offsite production).
pub fn produce_mc_run(
    run_number: u32,
    n_events: usize,
    gen_cfg: &GeneratorConfig,
    det_cfg: &DetectorConfig,
    version: &str,
    site: &str,
) -> McSample {
    let mut rng = Rng::seed_from_u64(0xC1E0_0000_0000 + run_number as u64);
    let run = generate_run(run_number, n_events, gen_cfg, &mut rng);
    let responses = run.events.iter().map(|ev| simulate_event(ev, det_cfg, &mut rng)).collect();
    McSample {
        run_number,
        truth: run.events,
        responses,
        version: version.to_string(),
        site: site.to_string(),
    }
}

/// Register an MC sample in a fresh personal EventStore, ready to ship.
pub fn stage_into_personal_store(
    sample: &McSample,
    produced: CalDate,
    file_id_base: u64,
) -> sciflow_eventstore::EsResult<EventStore> {
    let mut store = EventStore::new(StoreTier::Personal);
    let digest = md5(format!(
        "mc-run{}-{}-{}-{}",
        sample.run_number,
        sample.version,
        sample.site,
        sample.raw_bytes()
    )
    .as_bytes());
    store.register_file(&FileRecord {
        id: file_id_base + sample.run_number as u64,
        runs: RunRange::single(sample.run_number),
        kind: "mc".into(),
        version: sample.version.clone(),
        site: sample.site.clone(),
        registered: produced,
        location: format!("usb://mc/run{}/{}", sample.run_number, sample.version),
        prov_digest: digest,
    })?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_eventstore::merge_into;

    fn date() -> CalDate {
        CalDate::parse_compact("20050715").unwrap()
    }

    #[test]
    fn mc_production_is_reproducible() {
        let gen = GeneratorConfig::default();
        let det = DetectorConfig::default();
        let a = produce_mc_run(100, 20, &gen, &det, "MC Jul05", "offsite-farm");
        let b = produce_mc_run(100, 20, &gen, &det, "MC Jul05", "offsite-farm");
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.raw_bytes(), b.raw_bytes());
        // Different runs differ.
        let c = produce_mc_run(101, 20, &gen, &det, "MC Jul05", "offsite-farm");
        assert_ne!(a.truth, c.truth);
    }

    #[test]
    fn usb_disk_roundtrip_and_merge() {
        let gen = GeneratorConfig::default();
        let det = DetectorConfig::default();
        let mut collab = EventStore::new(StoreTier::Collaboration);
        // Two offsite farms produce different runs.
        for run in [200u32, 201] {
            let sample = produce_mc_run(run, 10, &gen, &det, "MC Jul05", "offsite-farm");
            let personal = stage_into_personal_store(&sample, date(), 9000).unwrap();
            let shipped = personal.to_bytes(); // the USB disk
            let received = EventStore::from_bytes(&shipped).unwrap();
            let report = merge_into(&mut collab, &received).unwrap();
            assert_eq!(report.files_added, 1);
        }
        assert_eq!(collab.file_count(), 2);
        let f = collab.file(9200).unwrap().unwrap();
        assert_eq!(f.kind, "mc");
        assert!(f.location.starts_with("usb://mc/run200"));
    }

    #[test]
    fn mc_volume_scales_with_events() {
        let gen = GeneratorConfig::default();
        let det = DetectorConfig::default();
        let small = produce_mc_run(1, 5, &gen, &det, "v", "s");
        let large = produce_mc_run(1, 50, &gen, &det, "v", "s");
        assert!(large.raw_bytes() > 5 * small.raw_bytes());
    }
}
