//! The Figure-2 data flow at paper scale, plus the CMS real-time filtering
//! model.
//!
//! CLEO's flow: acquisition of runs → reconstruction → post-reconstruction,
//! with Monte-Carlo production feeding in alongside, analysis downstream,
//! and ~90 TB accumulated overall. The CMS outlook ("limited to taking
//! 200 MB/s of data to be written to tape, therefore substantial filtering
//! has to take place in real time") is captured analytically by
//! [`cms_filter_required`] and as a runnable flow by
//! [`cms_trigger_flow_graph`].

use sciflow_core::fault::FaultProfile;
use sciflow_core::graph::{CheckpointPolicy, FlowGraph, VerifyPolicy};
use sciflow_core::obs::SloRule;
use sciflow_core::spec::{FilterSpec, FlowSpec, ProcessSpec, SourceSpec, TransferSpec};
use sciflow_core::units::{DataRate, DataVolume, SimDuration};

/// Paper-scale parameters for the CLEO flow.
#[derive(Debug, Clone)]
pub struct CleoFlowParams {
    /// Runs to simulate.
    pub runs: u64,
    /// Raw volume of one run (~55 min of data taking).
    pub run_volume: DataVolume,
    /// Run cadence.
    pub run_interval: SimDuration,
    /// Reconstruction output as a fraction of raw.
    pub recon_ratio: f64,
    /// Post-reconstruction output as a fraction of reconstruction.
    pub postrecon_ratio: f64,
    /// Monte-Carlo volume produced per data run.
    pub mc_per_run: DataVolume,
    /// USB-disk shipments the MC production is batched into.
    pub mc_shipments: u64,
    pub recon_rate_per_cpu: DataRate,
    /// Checkpoint policy of the reconstruction stage — the farm's
    /// long-running compute, and the stage worth restarting from a
    /// checkpoint when Wilson-lab nodes die mid-run.
    pub recon_checkpoint: CheckpointPolicy,
    /// Integrity check applied where data enters the collaboration
    /// EventStore — the model of the store recomputing each file's MD5
    /// provenance digest at registration time.
    pub eventstore_verify: VerifyPolicy,
}

impl Default for CleoFlowParams {
    fn default() -> Self {
        CleoFlowParams {
            runs: 24,
            run_volume: DataVolume::gb(25),
            run_interval: SimDuration::from_mins(60),
            recon_ratio: 0.6,
            postrecon_ratio: 0.15,
            mc_per_run: DataVolume::gb(30),
            mc_shipments: 2,
            recon_rate_per_cpu: DataRate::mb_per_sec(2.0),
            recon_checkpoint: CheckpointPolicy::None,
            eventstore_verify: VerifyPolicy::None,
        }
    }
}

impl CleoFlowParams {
    /// Checkpoint reconstruction every `every` of computed work.
    pub fn with_recon_checkpoint(mut self, every: SimDuration) -> Self {
        self.recon_checkpoint = CheckpointPolicy::interval(every);
        self
    }

    /// Digest-verify everything entering the collaboration EventStore at
    /// `rate` (MD5 recomputation over each registered file). Corrupted USB
    /// shipments are then quarantined at the store's door and replayed from
    /// the offsite Monte-Carlo masters instead of entering the archive.
    pub fn with_eventstore_verification(mut self, rate: DataRate) -> Self {
        self.eventstore_verify = VerifyPolicy::digest(rate);
        self
    }
}

/// Pool used by the on-site processing farm.
pub const WILSON_POOL: &str = "wilson-lab";

/// A crash profile for the Wilson-lab farm: `crashes_per_day` single-node
/// failures a day, each repaired in about `mean_repair`.
pub fn wilson_crash_profile(crashes_per_day: f64, mean_repair: SimDuration) -> FaultProfile {
    FaultProfile::node_crashes(WILSON_POOL, crashes_per_day, 1, mean_repair)
}

/// The fault profile behind a CLEO reprocess pass: USB disks couriered from
/// the offsite MC farms arrive "successfully" but carry latent, silently
/// corrupted blocks at `silent_corrupts_per_day`. Nothing notices in
/// transit — the damage only surfaces if the EventStore recomputes
/// provenance digests at registration (see
/// [`CleoFlowParams::with_eventstore_verification`]), which quarantines the
/// shipment and triggers a reprocessing pass from the retained MC masters.
pub fn reprocess_pass_profile(silent_corrupts_per_day: f64) -> FaultProfile {
    FaultProfile::silent_corruption(silent_corrupts_per_day)
}

/// SLO preset for the CLEO flow, sized from the flow's own parameters: the
/// reconstruction farm falling a shift (eight runs) behind acquisition, or
/// any corrupt run escaping EventStore verification. Attach it to the built
/// graph with [`FlowGraph::set_slos`]: same flow, same replay, plus an
/// `alerts` section in the report. [`cleo_flow_graph`] leaves rules off so
/// the committed goldens keep their pre-SLO bytes.
pub fn cleo_slo_preset(p: &CleoFlowParams) -> Vec<SloRule> {
    vec![
        SloRule::queue_backlog("recon-backlog", "reconstruction", p.run_volume * 8),
        SloRule::escaped_taint("eventstore-escapes", 0),
    ]
}

/// Build the Figure-2 flow: run acquisition → reconstruction →
/// post-reconstruction → collaboration EventStore; MC produced in parallel
/// (offsite) and shipped in; analysis reads the store.
pub fn cleo_flow_graph(p: &CleoFlowParams) -> FlowGraph {
    // Offsite Monte-Carlo production, accumulated into a few batched USB
    // shipments (a courier box per run would be absurd — and, in the model,
    // would serialize the two-day transit per run).
    let shipments = p.mc_shipments.max(1);
    FlowSpec::new()
        .source("acquire-runs", SourceSpec::new(p.run_volume, p.run_interval, p.runs))
        .process(
            "reconstruction",
            ProcessSpec::new(p.recon_rate_per_cpu, WILSON_POOL)
                .chunk(p.run_volume / 16) // events are independent
                .output_ratio(p.recon_ratio)
                .workspace_ratio(0.1)
                .retain_input(true) // raw runs are kept
                .checkpoint(p.recon_checkpoint),
            &["acquire-runs"],
        )
        .process(
            "post-reconstruction",
            ProcessSpec::new(DataRate::mb_per_sec(8.0), WILSON_POOL)
                // No chunking: needs whole-run statistics, not splittable.
                .output_ratio(p.postrecon_ratio)
                .retain_input(true), // reconstruction is a long-lived product
            &["reconstruction"],
        )
        .archive("collaboration-eventstore", &["post-reconstruction"])
        .source(
            "mc-production",
            SourceSpec::new(
                p.mc_per_run * p.runs / shipments,
                p.run_interval * p.runs.div_ceil(shipments),
                shipments,
            ),
        )
        .transfer(
            "usb-shipping",
            TransferSpec::new(DataRate::mb_per_sec(25.0)).latency(SimDuration::from_days(2)),
            &["mc-production"],
        )
        .process(
            "mc-merge",
            ProcessSpec::new(DataRate::mb_per_sec(50.0), WILSON_POOL),
            &["usb-shipping"],
        )
        // The EventStore is declared before mc-merge, so this edge is wired
        // by name after the fact.
        .feed("mc-merge", "collaboration-eventstore")
        .verify("collaboration-eventstore", p.eventstore_verify)
        .build()
        .expect("cleo flow spec is valid")
}

/// CMS real-time filtering: given the collision-event rate and size and the
/// tape ceiling, what fraction of events must the trigger reject before
/// tape?
pub fn cms_filter_required(event_rate_hz: f64, event_size: DataVolume, tape_rate: DataRate) -> f64 {
    assert!(event_rate_hz > 0.0, "event rate must be positive");
    let offered = event_rate_hz * event_size.bytes() as f64;
    let accepted = tape_rate.bytes_per_sec() / offered;
    (1.0 - accepted).max(0.0)
}

/// Parameters for the CMS trigger-to-tape flow sketched in Section 5.
#[derive(Debug, Clone)]
pub struct CmsTriggerParams {
    /// Level-1 accept rate offered to the filter farm.
    pub event_rate_hz: f64,
    /// Size of one collision event.
    pub event_size: DataVolume,
    /// Tape-writing ceiling (paper: 200 MB/s).
    pub tape_rate: DataRate,
    /// Length of one accelerator fill segment the detector streams out.
    pub burst: SimDuration,
    /// Number of segments to simulate.
    pub bursts: u64,
}

impl Default for CmsTriggerParams {
    fn default() -> Self {
        CmsTriggerParams {
            event_rate_hz: 100_000.0,
            event_size: DataVolume::mb(1),
            tape_rate: DataRate::mb_per_sec(200.0),
            burst: SimDuration::from_mins(10),
            bursts: 6,
        }
    }
}

impl CmsTriggerParams {
    /// Detector output rate offered to the trigger (rate × event size).
    pub fn offered_rate(&self) -> DataRate {
        DataRate::from_bytes_per_sec(self.event_rate_hz * self.event_size.bytes() as f64)
    }

    /// Fraction of events the trigger may keep and still fit on tape.
    pub fn accept_ratio(&self) -> f64 {
        1.0 - cms_filter_required(self.event_rate_hz, self.event_size, self.tape_rate)
    }
}

/// Build the CMS trigger flow: the detector streams fill segments into a
/// real-time filter that inspects every byte at the offered rate and
/// forwards only the accepted fraction — "200 MB/s of data to be written to
/// tape, therefore substantial filtering has to take place in real time".
pub fn cms_trigger_flow_graph(p: &CmsTriggerParams) -> FlowGraph {
    let offered = p.offered_rate();
    FlowSpec::new()
        .source("detector", SourceSpec::new(offered.over(p.burst), p.burst, p.bursts))
        .filter("l1-trigger", FilterSpec::new(offered, p.accept_ratio()), &["detector"])
        .archive("tape", &["l1-trigger"])
        .build()
        .expect("cms trigger flow spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::sim::{CpuPool, FlowSim};
    use sciflow_core::trace::ObserveConfig;

    fn run_flow(runs: u64, cpus: u32) -> sciflow_core::SimReport {
        let p = CleoFlowParams { runs, ..CleoFlowParams::default() };
        FlowSim::new(cleo_flow_graph(&p), vec![CpuPool::new(WILSON_POOL, cpus)])
            .expect("valid flow")
            .run()
            .expect("flow completes")
    }

    #[test]
    fn volume_ratios_match_parameters() {
        let report = run_flow(10, 64);
        let raw = report.stage("acquire-runs").unwrap().volume_out;
        let recon = report.stage("reconstruction").unwrap().volume_out;
        let post = report.stage("post-reconstruction").unwrap().volume_out;
        assert_eq!(raw, DataVolume::gb(250));
        let r1 = recon.bytes() as f64 / raw.bytes() as f64;
        let r2 = post.bytes() as f64 / recon.bytes() as f64;
        assert!((r1 - 0.6).abs() < 0.01, "{r1}");
        assert!((r2 - 0.15).abs() < 0.02, "{r2}");
    }

    #[test]
    fn eventstore_receives_postrecon_and_mc() {
        let report = run_flow(6, 64);
        let store_in = report.stage("collaboration-eventstore").unwrap().volume_in;
        let post = report.stage("post-reconstruction").unwrap().volume_out;
        let mc = report.stage("mc-production").unwrap().volume_out;
        assert_eq!(store_in, post + mc);
        assert_eq!(mc, DataVolume::gb(180));
    }

    #[test]
    fn onsite_farm_keeps_up_with_run_cadence() {
        // Paper: CLEO's "lower raw data rates ... made on-site processing
        // the best possible choice". A modest farm keeps up: reconstruction
        // and post-reconstruction finish within hours of the last run; the
        // overall tail is bounded by the USB couriers, not the farm.
        let report = run_flow(12, 32);
        let source_end = report.source_end.unwrap();
        let post_done = report.stage("post-reconstruction").unwrap().completed_at;
        let lag = post_done.checked_sub(source_end).unwrap_or_default();
        assert!(lag < SimDuration::from_hours(24), "processing lag {lag}");
        let drain = report.drain_duration().unwrap();
        assert!(drain.as_days_f64() < 6.0, "drain {drain}");
    }

    #[test]
    fn cms_needs_three_nines_rejection() {
        // LHC-era CMS: O(100 kHz) L1 output of ~1 MB events vs 200 MB/s
        // to tape → ≥ 99.8% of events must be filtered in real time.
        let rejection =
            cms_filter_required(100_000.0, DataVolume::mb(1), DataRate::mb_per_sec(200.0));
        assert!(rejection > 0.995, "rejection {rejection}");
        // CLEO-scale rates need no filtering at all.
        let easy = cms_filter_required(100.0, DataVolume::kib(100), DataRate::mb_per_sec(200.0));
        assert_eq!(easy, 0.0);
    }

    #[test]
    fn cms_trigger_keeps_up_in_real_time_and_fits_the_tape_budget() {
        let p = CmsTriggerParams::default();
        let report = FlowSim::new(cms_trigger_flow_graph(&p), vec![])
            .expect("valid flow")
            .run()
            .expect("flow completes");
        let trigger = report.stage("l1-trigger").unwrap();
        // Every byte the detector emits is inspected; only the accepted
        // fraction (0.2% at 100 kHz × 1 MB vs 200 MB/s) reaches tape.
        let offered = report.stage("detector").unwrap().volume_out;
        assert_eq!(trigger.volume_in, offered);
        let kept = trigger.volume_out.bytes() as f64 / offered.bytes() as f64;
        assert!((kept - p.accept_ratio()).abs() < 1e-6, "kept fraction {kept}");
        assert_eq!(report.stage("tape").unwrap().volume_in, trigger.volume_out);
        // "In real time": inspection runs at the offered rate, so the
        // filter's effective output rate sits at the tape ceiling and the
        // flow drains as the last burst ends — no backlog accumulates.
        let tape_mb_s = trigger.volume_out.bytes() as f64 / trigger.busy.as_secs_f64() / 1e6;
        assert!((tape_mb_s - 200.0).abs() < 1.0, "tape-facing rate {tape_mb_s} MB/s");
        assert!(report.backlog_at_source_end.unwrap() <= p.offered_rate().over(p.burst));
    }

    #[test]
    fn graph_validates() {
        cleo_flow_graph(&CleoFlowParams::default()).validate().unwrap();
        cms_trigger_flow_graph(&CmsTriggerParams::default()).validate().unwrap();
    }

    #[test]
    fn observed_flow_replays_identically_and_carries_telemetry() {
        let p = CleoFlowParams { runs: 10, ..CleoFlowParams::default() };
        let plain = FlowSim::new(cleo_flow_graph(&p), vec![CpuPool::new(WILSON_POOL, 64)])
            .expect("valid flow")
            .run()
            .expect("flow completes");
        let mut graph = cleo_flow_graph(&p);
        // Runs arrive hourly and reconstruction tasks span tens of minutes,
        // so half-hour samples resolve the farm's occupancy.
        let tick = SimDuration::from_mins(30);
        graph.set_observe(ObserveConfig::every(tick));
        let observed = FlowSim::new(graph, vec![CpuPool::new(WILSON_POOL, 64)])
            .expect("valid flow")
            .run()
            .expect("flow completes");
        assert_eq!(plain.finished_at, observed.finished_at);
        assert_eq!(plain.stages, observed.stages);
        let ts = observed.timeseries.as_ref().expect("preset enables telemetry");
        assert_eq!(ts.tick, tick);
        assert_eq!(ts.pools, vec![WILSON_POOL.to_string()]);
        assert!(ts.samples.iter().any(|s| s.pool_in_use[0] > 0), "farm occupancy is sampled");
    }

    #[test]
    fn verified_eventstore_quarantines_bad_shipments_and_reprocesses() {
        use sciflow_core::fault::{FaultPlan, RetryPolicy};
        use sciflow_testkit::assert_integrity_audit;

        // Silent corruption on the courier path: multi-day USB shipment
        // windows see a few latent bit flips each.
        let plan =
            FaultPlan::generate(29, SimDuration::from_days(21), &reprocess_pass_profile(1.5));
        let run = |params: &CleoFlowParams| {
            FlowSim::new(cleo_flow_graph(params), vec![CpuPool::new(WILSON_POOL, 64)])
                .expect("valid flow")
                .with_faults(plan.clone(), RetryPolicy::default())
                .run()
                .expect("flow completes")
        };
        let base = CleoFlowParams::default();
        let unverified = run(&base);
        let verified_params =
            base.clone().with_eventstore_verification(DataRate::mb_per_sec(200.0));
        let verified = run(&verified_params);
        assert_integrity_audit(&unverified);
        assert_integrity_audit(&verified);

        // Without verification the corrupt shipments are archived as-is.
        assert!(unverified.total_corrupt_injected() > 0, "the plan must taint a shipment");
        assert_eq!(unverified.total_corrupt_escaped(), unverified.total_corrupt_injected());

        // With digest checks at the store's door nothing corrupt gets in:
        // the bad shipment is quarantined and replayed from the MC masters.
        assert_eq!(verified.total_corrupt_escaped(), 0);
        assert!(verified.total_corrupt_detected() > 0);
        let store = verified.stage("collaboration-eventstore").unwrap();
        assert!(store.quarantined > 0);
        assert!(store.verify_overhead > SimDuration::ZERO);
        assert!(
            verified.stage("usb-shipping").unwrap().reprocessed_blocks > 0,
            "lineage walk must replay the shipment from the durable MC source"
        );

        // Reprocessing restores exactly the fault-free archive contents.
        let clean =
            FlowSim::new(cleo_flow_graph(&verified_params), vec![CpuPool::new(WILSON_POOL, 64)])
                .expect("valid flow")
                .run()
                .expect("flow completes");
        assert_eq!(verified.retained_storage, clean.retained_storage);
    }

    #[test]
    fn checkpointed_reconstruction_survives_a_crashing_farm() {
        use sciflow_core::fault::{FaultPlan, RetryPolicy};

        // A farm small enough to stay busy, crashed hard: two dozen node
        // failures a day against ~3.5 cpu-hours of reconstruction per run.
        let base = CleoFlowParams::default();
        let profile = wilson_crash_profile(24.0, SimDuration::from_mins(20));
        let plan = FaultPlan::generate(23, SimDuration::from_days(14), &profile);
        let run = |params: &CleoFlowParams| {
            FlowSim::new(cleo_flow_graph(params), vec![CpuPool::new(WILSON_POOL, 4)])
                .expect("valid flow")
                .with_faults(plan.clone(), RetryPolicy::default())
                .run()
                .expect("flow completes")
        };
        let plain = run(&base);
        let ckpt = run(&base.clone().with_recon_checkpoint(SimDuration::from_mins(5)));
        let p = plain.stage("reconstruction").unwrap();
        let c = ckpt.stage("reconstruction").unwrap();
        assert!(p.crashes > 0, "the crash plan must kill reconstruction tasks");
        assert!(
            c.work_lost < p.work_lost,
            "checkpointing must salvage work: {} vs {}",
            c.work_lost,
            p.work_lost
        );
        // Crashes destroy compute, never data.
        assert_eq!(p.volume_out, c.volume_out);
        assert_eq!(p.volume_out, plain.stage("acquire-runs").unwrap().volume_out * 6 / 10);
    }
}
