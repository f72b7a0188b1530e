//! The Figure-1 data flow at paper scale, expressed as a
//! [`sciflow_core::FlowGraph`] for the discrete-event simulator.
//!
//! Stage volumes and ratios come straight from Section 2.1: a "useful data
//! block" of 400 pointings per week is 14 TB of raw data; dedispersed time
//! series "require storage about equal to that of the original raw data";
//! data products are "about one to a few percent the size of the raw data";
//! refined candidates are "usually about 0.1% of the raw data volume"; and
//! "overall about 50 to 200 processors would be needed to keep up with the
//! flow of data".

use sciflow_core::fault::FaultProfile;
use sciflow_core::graph::{CheckpointPolicy, FlowGraph, VerifyPolicy};
use sciflow_core::spec::{FlowSpec, ProcessSpec, SourceSpec, TransferSpec};
use sciflow_core::trace::ObserveConfig;
use sciflow_core::units::{DataRate, DataVolume, SimDuration};

/// Paper-scale parameters for the Arecibo flow.
#[derive(Debug, Clone)]
pub struct AreciboFlowParams {
    /// Observing weeks to simulate.
    pub weeks: u64,
    /// Raw volume of one weekly data block (paper: 14 TB).
    pub weekly_block: DataVolume,
    /// Effective disk-shipping channel: sustained rate and per-shipment
    /// latency (derived from `sciflow_simnet` plans).
    pub shipping_rate: DataRate,
    pub shipping_latency: SimDuration,
    /// Crates of disks that may be in transit at once. One lane reproduces
    /// the strictly serial historical channel; more lanes overlap shipments
    /// when the loading dock, not the courier, is the constraint.
    pub shipping_channels: u32,
    /// Per-CPU processing rates, calibrated so the basic analysis lands in
    /// the paper's 50–200 processor band at the survey data rate.
    pub dedisperse_rate_per_cpu: DataRate,
    pub search_rate_per_cpu: DataRate,
    /// Products fraction of raw ("one to a few percent").
    pub product_ratio: f64,
    /// Candidate fraction of products (0.1% of raw overall).
    pub candidate_ratio: f64,
    /// Checkpoint policy of the dedispersion stage. Dedispersing one
    /// pointing takes hours per CPU, so on a crashing farm this is the
    /// stage where checkpoint/restart pays for itself.
    pub dedisperse_checkpoint: CheckpointPolicy,
    /// Integrity check applied as crates of disks are read onto tape at
    /// CTC — the checksum-manifest pass that catches transit damage.
    pub tape_verify: VerifyPolicy,
}

impl Default for AreciboFlowParams {
    fn default() -> Self {
        AreciboFlowParams {
            weeks: 4,
            weekly_block: DataVolume::tb(14),
            // Disk loading at 50 MB/s is the serial resource (~3.2 d per
            // 14 TB block); couriering pipelines behind it and appears as
            // per-shipment latency.
            shipping_rate: DataRate::mb_per_sec(50.0),
            shipping_latency: SimDuration::from_hours(80),
            shipping_channels: 1,
            dedisperse_rate_per_cpu: DataRate::mb_per_sec(0.35),
            search_rate_per_cpu: DataRate::mb_per_sec(0.7),
            product_ratio: 0.02,
            candidate_ratio: 0.05, // 5% of 2% = 0.1% of raw
            dedisperse_checkpoint: CheckpointPolicy::None,
            tape_verify: VerifyPolicy::None,
        }
    }
}

impl AreciboFlowParams {
    /// Volume of one telescope pointing: 400 pointings per weekly block
    /// (the data-parallel task granularity — pointings are independent).
    pub fn pointing_volume(&self) -> DataVolume {
        self.weekly_block / 400
    }

    /// Checkpoint the dedispersion stage every `every` of computed work.
    pub fn with_dedisperse_checkpoint(mut self, every: SimDuration) -> Self {
        self.dedisperse_checkpoint = CheckpointPolicy::interval(every);
        self
    }

    /// Digest-verify every crate as it is read onto tape at `rate`.
    /// Damaged crates are quarantined instead of archived and replayed
    /// through quality monitoring and shipping from the telescope's raw
    /// copy.
    pub fn with_tape_verification(mut self, rate: DataRate) -> Self {
        self.tape_verify = VerifyPolicy::digest(rate);
        self
    }
}

/// A crash profile for the CTC processing farm: `crashes_per_day` single-CPU
/// failures a day, each repaired in about `mean_repair`. Pair with
/// [`AreciboFlowParams::with_dedisperse_checkpoint`] to bound the work each
/// crash destroys.
pub fn ctc_crash_profile(crashes_per_day: f64, mean_repair: SimDuration) -> FaultProfile {
    FaultProfile::node_crashes(CTC_POOL, crashes_per_day, 1, mean_repair)
}

/// Silent bit rot on the disk-shipping channel: crates ride commercial
/// couriers for days, arrive "successfully", and only a checksum pass at
/// the tape library (see [`AreciboFlowParams::with_tape_verification`])
/// can tell a damaged platter from a good one.
pub fn tape_bitrot_profile(silent_corrupts_per_day: f64) -> FaultProfile {
    FaultProfile::silent_corruption(silent_corrupts_per_day)
}

/// Pool name used by the processing stages.
pub const CTC_POOL: &str = "ctc";

/// Telemetry preset for the survey flow: the weekly cadence and multi-day
/// shipping legs resolve cleanly at one sample every six hours, keeping a
/// month-long run to a few hundred samples. Attach it to the built graph
/// with [`FlowGraph::set_observe`]: same flow, same replay, plus time-series
/// and engine sections in the report.
pub fn arecibo_observe_preset() -> ObserveConfig {
    ObserveConfig::every(SimDuration::from_hours(6))
}

/// Build the Figure-1 flow: acquisition at the telescope, local quality
/// monitoring, disk shipping, tape archiving, dedispersion, search,
/// meta-analysis consolidation, database load, and NVO-facing archive.
pub fn arecibo_flow_graph(p: &AreciboFlowParams) -> FlowGraph {
    FlowSpec::new()
        .source("acquire", SourceSpec::new(p.weekly_block, SimDuration::from_days(7), p.weeks))
        // Local quality monitoring passes the data through quickly ("initial
        // local processing for quality monitoring and for making preliminary
        // discoveries"). No chunking: the weekly block ships as one crate.
        .process(
            "local-qa",
            ProcessSpec::new(DataRate::mb_per_sec(60.0), "observatory").cpus_per_task(4),
            &["acquire"],
        )
        .transfer(
            "ship-disks",
            TransferSpec::new(p.shipping_rate)
                .latency(p.shipping_latency)
                .channels(p.shipping_channels),
            &["local-qa"],
        )
        .archive("tape-archive", &["ship-disks"])
        .verify("tape-archive", p.tape_verify)
        .process(
            "dedisperse",
            ProcessSpec::new(p.dedisperse_rate_per_cpu, CTC_POOL)
                .chunk(p.pointing_volume())
                .workspace_ratio(0.15) // iterative processing scratch
                .retain_input(true) // raw kept for reprocessing; output ≈ raw
                .checkpoint(p.dedisperse_checkpoint),
            &["ship-disks"],
        )
        .process(
            "search",
            ProcessSpec::new(p.search_rate_per_cpu, CTC_POOL)
                .chunk(p.pointing_volume())
                .output_ratio(p.product_ratio),
            &["dedisperse"],
        )
        .process(
            "meta-analysis",
            ProcessSpec::new(DataRate::mb_per_sec(20.0), CTC_POOL)
                .output_ratio(p.candidate_ratio)
                .retain_input(true), // products are long-lived
            &["search"],
        )
        .archive("ctc-database", &["meta-analysis"])
        .build()
        .expect("arecibo flow spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::sim::{CpuPool, FlowSim};

    fn run_params(params: &AreciboFlowParams, ctc_cpus: u32) -> sciflow_core::SimReport {
        let g = arecibo_flow_graph(params);
        FlowSim::new(g, vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, ctc_cpus)])
            .expect("valid flow")
            .run()
            .expect("flow completes")
    }

    fn run(weeks: u64, ctc_cpus: u32) -> sciflow_core::SimReport {
        run_params(&AreciboFlowParams { weeks, ..AreciboFlowParams::default() }, ctc_cpus)
    }

    #[test]
    fn volumes_follow_paper_ratios() {
        let report = run(2, 200);
        let raw = report.stage("acquire").unwrap().volume_out;
        let dedisp = report.stage("dedisperse").unwrap().volume_out;
        let products = report.stage("search").unwrap().volume_out;
        let candidates = report.stage("meta-analysis").unwrap().volume_out;
        assert_eq!(raw, DataVolume::tb(28));
        // Time series ≈ raw.
        assert_eq!(dedisp, raw);
        // Products 2% of raw, candidates 0.1% of raw.
        let p_ratio = products.bytes() as f64 / raw.bytes() as f64;
        let c_ratio = candidates.bytes() as f64 / raw.bytes() as f64;
        assert!((p_ratio - 0.02).abs() < 0.002, "{p_ratio}");
        assert!((c_ratio - 0.001).abs() < 0.0002, "{c_ratio}");
        // Tape archive holds all raw.
        assert_eq!(report.stage("tape-archive").unwrap().volume_in, raw);
    }

    #[test]
    fn instantaneous_storage_exceeds_thirty_tb() {
        let report = run(2, 200);
        assert!(report.peak_storage >= DataVolume::tb(30), "peak {}", report.peak_storage);
    }

    #[test]
    fn hundred_and_fifty_cpus_keep_up_ten_do_not() {
        let ample = run(3, 150);
        let starved = run(3, 10);
        let ample_drain = ample.drain_duration().unwrap();
        let starved_drain = starved.drain_duration().unwrap();
        // With capacity above the ~100-cpu steady-state demand, the tail is
        // bounded by the last block's own ship+process time.
        assert!(ample_drain.as_days_f64() < 21.0, "150 cpus should keep up, drain {ample_drain}");
        // At 10 cpus, three weeks of data take months to clear.
        assert!(
            starved_drain.as_days_f64() > 60.0,
            "10 cpus should fall far behind, drain {starved_drain}"
        );
    }

    #[test]
    fn parallel_shipping_lanes_clear_a_slow_channel() {
        // Halve the loading rate so one lane can no longer keep up with the
        // weekly cadence (~9.8 days door to door per 14 TB crate): shipments
        // queue behind the single channel.
        let slow_lane = AreciboFlowParams {
            weeks: 4,
            shipping_rate: DataRate::mb_per_sec(25.0),
            ..AreciboFlowParams::default()
        };
        let serial = run_params(&slow_lane, 150);
        let parallel =
            run_params(&AreciboFlowParams { shipping_channels: 3, ..slow_lane.clone() }, 150);
        // Same data delivered either way.
        assert_eq!(
            serial.stage("tape-archive").unwrap().volume_in,
            parallel.stage("tape-archive").unwrap().volume_in,
        );
        // Three crates in transit at once clear the backlog sooner.
        let serial_done = serial.stage("ship-disks").unwrap().completed_at;
        let parallel_done = parallel.stage("ship-disks").unwrap().completed_at;
        assert!(
            parallel_done < serial_done,
            "parallel lanes should finish shipping sooner ({parallel_done} vs {serial_done})"
        );
        assert!(parallel.finished_at <= serial.finished_at);
    }

    #[test]
    fn graph_validates_and_names_pools() {
        let g = arecibo_flow_graph(&AreciboFlowParams::default());
        g.validate().unwrap();
        assert_eq!(g.referenced_pools(), vec![CTC_POOL, "observatory"]);
    }

    #[test]
    fn observed_flow_replays_identically_and_carries_telemetry() {
        let params = AreciboFlowParams { weeks: 2, ..AreciboFlowParams::default() };
        let plain = run_params(&params, 150);
        let mut graph = arecibo_flow_graph(&params);
        graph.set_observe(arecibo_observe_preset());
        let observed =
            FlowSim::new(graph, vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)])
                .expect("valid flow")
                .run()
                .expect("flow completes");
        // Observation adds sections; it never changes the simulated physics.
        assert_eq!(plain.finished_at, observed.finished_at);
        assert_eq!(plain.stages, observed.stages);
        let ts = observed.timeseries.as_ref().expect("preset enables telemetry");
        assert_eq!(ts.tick, arecibo_observe_preset().tick);
        assert!(ts.samples.len() > 10);
        assert_eq!(ts.samples.last().unwrap().at, observed.finished_at);
        assert!(observed.engine.unwrap().events_handled > 0);
    }

    #[test]
    fn tape_verification_catches_transit_bitrot_and_reships() {
        use sciflow_core::fault::{FaultPlan, RetryPolicy};
        use sciflow_testkit::assert_integrity_audit;

        // Each 14 TB crate spends ~6.6 days door to door, so a modest
        // bit-rot rate taints most shipments.
        let base = AreciboFlowParams { weeks: 2, ..AreciboFlowParams::default() };
        let plan = FaultPlan::generate(31, SimDuration::from_days(45), &tape_bitrot_profile(0.5));
        let run = |params: &AreciboFlowParams| {
            FlowSim::new(
                arecibo_flow_graph(params),
                vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)],
            )
            .expect("valid flow")
            .with_faults(plan.clone(), RetryPolicy::default())
            .run()
            .expect("flow completes")
        };
        let unverified = run(&base);
        let verified = run(&base.clone().with_tape_verification(DataRate::mb_per_sec(300.0)));
        assert_integrity_audit(&unverified);
        assert_integrity_audit(&verified);

        // Without the checksum pass, rotten crates land on tape unnoticed.
        assert!(unverified.total_corrupt_injected() > 0, "the plan must taint a crate");
        assert_eq!(unverified.total_corrupt_escaped(), unverified.total_corrupt_injected());

        // With it, nothing rotten is archived: the crate is quarantined and
        // re-shipped from the telescope's raw copy via quality monitoring.
        assert_eq!(verified.total_corrupt_escaped(), 0);
        let tape = verified.stage("tape-archive").unwrap();
        assert!(tape.corrupt_detected > 0);
        assert!(tape.quarantined > 0);
        assert!(tape.verify_overhead > SimDuration::ZERO);
        assert!(
            verified.stage("local-qa").unwrap().reprocessed_blocks > 0,
            "lineage walk must restart from the durable acquisition stage"
        );
        // Tape ends up holding at least the full survey raw volume.
        assert!(tape.volume_in >= unverified.stage("acquire").unwrap().volume_out);
    }

    #[test]
    fn checkpointed_dedispersion_survives_a_crashing_farm() {
        use sciflow_core::fault::{FaultPlan, RetryPolicy};

        // One week of data on a farm small enough to stay saturated, so
        // crashes land on busy cpus; each pointing is a ~28 h task.
        let base = AreciboFlowParams { weeks: 1, ..AreciboFlowParams::default() };
        let profile = ctc_crash_profile(4.0, SimDuration::from_hours(2));
        let plan = FaultPlan::generate(11, SimDuration::from_days(30), &profile);
        let run = |params: &AreciboFlowParams| {
            FlowSim::new(
                arecibo_flow_graph(params),
                vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 100)],
            )
            .expect("valid flow")
            .with_faults(plan.clone(), RetryPolicy::default())
            .run()
            .expect("flow completes")
        };
        let plain = run(&base);
        let ckpt = run(&base.clone().with_dedisperse_checkpoint(SimDuration::from_hours(2)));
        let (p, c) =
            (plain.stage("dedisperse").unwrap().clone(), ckpt.stage("dedisperse").unwrap().clone());
        assert!(p.crashes > 0, "the crash plan must kill dedispersion tasks");
        assert!(
            c.work_lost < p.work_lost,
            "checkpointing must salvage work: {} vs {}",
            c.work_lost,
            p.work_lost
        );
        // Crashes destroy compute, never data: the full raw volume is
        // dedispersed either way.
        let raw = plain.stage("acquire").unwrap().volume_out;
        assert_eq!(p.volume_out, raw);
        assert_eq!(c.volume_out, raw);
    }
}
