//! The Arecibo workload end to end: synthesize a 7-beam pointing with a
//! hidden pulsar and interference, run the full search pipeline, and load
//! the surviving candidates into the CTC-style database.
//!
//! ```text
//! cargo run -p sciflow-examples --release --bin pulsar_search
//! ```

use sciflow_core::rng::Rng;

use sciflow_arecibo::meta::{
    candidates_for_pointing, classify_candidate, create_candidate_table, load_candidates,
    sky_coincidence_cull, PointingCandidate,
};
use sciflow_arecibo::pipeline::{process_pointing, PipelineConfig};
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
use sciflow_arecibo::units::Dm;
use sciflow_core::version::{CalDate, VersionId};
use sciflow_metastore::Database;

fn main() {
    let cfg = ObsConfig::test_scale();
    let mut rng = Rng::seed_from_u64(1974); // Hulse–Taylor year

    // --- 1. A pointing: 7 ALFA beams, one hiding a pulsar ---------------
    let mut beams: Vec<DynamicSpectrum> =
        (0..7).map(|_| DynamicSpectrum::noise(cfg, &mut rng)).collect();
    let truth = PulsarParams {
        dm: Dm(60.0),
        period_s: 0.128,
        width_s: 0.004,
        amplitude: 6.0,
        phase_s: 0.02,
    };
    beams[3].inject_pulsar(&truth);
    // Terrestrial contamination: a 60 Hz carrier everywhere, a hot channel.
    for b in beams.iter_mut() {
        b.inject_pulsar(&PulsarParams {
            dm: Dm(0.0),
            period_s: 1.0 / 60.0,
            width_s: 0.002,
            amplitude: 2.0,
            phase_s: 0.0,
        });
    }
    beams[0].inject_narrowband_rfi(17, 6.0);
    println!(
        "pointing: 7 beams × {} channels × {} samples ({} raw)",
        cfg.n_channels,
        cfg.n_samples,
        sciflow_core::DataVolume::from_bytes(7 * cfg.volume_bytes()),
    );
    println!("hidden pulsar: P = {} s, DM = {} pc/cm³ (beam 3)\n", truth.period_s, truth.dm.0);

    // --- 2. Run the pipeline --------------------------------------------
    let pipe = PipelineConfig { n_dm_trials: 16, dm_max: 150.0, ..PipelineConfig::default() };
    let version = VersionId::new(
        "Dedisp",
        "Example_06",
        CalDate::new(2006, 7, 4).expect("valid date"),
        "CTC",
    );
    let out = process_pointing(42, &beams, &pipe, version);
    for beam in &out.beams {
        println!(
            "beam {}: {} channel(s) excised, {} periodic candidate(s), {} single pulse(s)",
            beam.beam,
            beam.zapped_channels,
            beam.periodic.len(),
            beam.single_pulses.len()
        );
    }
    println!();
    for bc in &out.coincidences {
        println!(
            "signal at {:8.3} Hz  snr {:5.1}  beams {}  → {}",
            bc.candidate.freq_hz,
            bc.candidate.snr,
            bc.beams,
            if bc.terrestrial { "terrestrial (culled)" } else { "celestial" }
        );
    }
    println!();
    for c in &out.confirmed {
        println!(
            "CONFIRMED: P = {:.4} s  DM = {:5.1}  fold SNR {:.1}",
            c.candidate.period_s, c.candidate.dm.0, c.fold_snr
        );
    }
    println!(
        "\ndata products: {} of {} raw ({:.3}%)",
        sciflow_core::DataVolume::from_bytes(out.product_bytes),
        sciflow_core::DataVolume::from_bytes(out.raw_bytes),
        100.0 * out.product_bytes as f64 / out.raw_bytes as f64
    );
    println!("provenance: {:?}", out.provenance.version_chain());

    // --- 3. Load candidates into the database, run the meta-analysis ----
    let mut db = Database::new();
    create_candidate_table(&mut db).expect("fresh database");
    let mut next_id = 0i64;
    for beam in &out.beams {
        load_candidates(&mut db, 42, beam.beam, &beam.periodic, &mut next_id).expect("fresh ids");
    }
    let rows = candidates_for_pointing(&db, 42, 6.0).expect("table exists");
    println!("\ncandidate database: {} rows above 6σ for pointing 42", rows.len());
    if next_id > 0 {
        classify_candidate(&mut db, 0, "confirmed-pulsar").expect("row exists");
    }

    // Simulated sky-wide test across pointings: the carrier shows up
    // everywhere, the pulsar in one direction only.
    let mut sky: Vec<PointingCandidate> = Vec::new();
    for (p, bc) in out.coincidences.iter().enumerate().take(3) {
        let _ = p;
        sky.push(PointingCandidate { pointing: 42, candidate: bc.candidate.clone() });
    }
    let groups = sky_coincidence_cull(&sky, 0.01, 3);
    println!("meta-analysis groups: {}", groups.len());
}
