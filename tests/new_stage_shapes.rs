//! End-to-end coverage for the stage shapes the layered engine unlocked:
//! the `Filter` kind (CMS real-time triggering) and multi-channel
//! `Transfer`s (parallel Arecibo shipping lanes), plus scheduler-fairness
//! properties for the shared resource layer.

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cms_trigger_flow_graph, CmsTriggerParams};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::DataRate;
use sciflow_testkit::{assert_monotone_sim_time, check, SharedPoolScenario};

#[test]
fn cms_trigger_filter_runs_end_to_end() {
    let p = CmsTriggerParams::default();
    let report = FlowSim::new(cms_trigger_flow_graph(&p), vec![])
        .expect("valid flow")
        .run()
        .expect("flow completes");
    assert_monotone_sim_time(&report);
    let trigger = report.stage("l1-trigger").unwrap();
    // 100 kHz × 1 MB for six 10-minute fills = 360 TB offered; at a 200 MB/s
    // tape ceiling only 0.2% survives the trigger.
    assert_eq!(trigger.volume_in, report.stage("detector").unwrap().volume_out);
    assert_eq!(report.stage("tape").unwrap().volume_in, trigger.volume_out);
    let kept = trigger.volume_out.bytes() as f64 / trigger.volume_in.bytes() as f64;
    assert!((kept - 0.002).abs() < 1e-9, "kept fraction {kept}");
    // The rejected volume is fully accounted: freed, not archived — only
    // the accepted fraction is permanently retained.
    assert_eq!(report.retained_storage, trigger.volume_out);
}

#[test]
fn multi_channel_shipping_runs_end_to_end_and_beats_serial() {
    let slow_lane = AreciboFlowParams {
        weeks: 4,
        shipping_rate: DataRate::mb_per_sec(25.0),
        ..AreciboFlowParams::default()
    };
    let pools = || vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)];
    let run = |p: &AreciboFlowParams| {
        FlowSim::new(arecibo_flow_graph(p), pools())
            .expect("valid flow")
            .run()
            .expect("flow completes")
    };
    let serial = run(&slow_lane);
    let parallel = run(&AreciboFlowParams { shipping_channels: 3, ..slow_lane });
    for report in [&serial, &parallel] {
        assert_monotone_sim_time(report);
    }
    // Identical payload either way, but three crates in transit at once
    // finish the shipping stage strictly sooner.
    assert_eq!(
        serial.stage("tape-archive").unwrap().volume_in,
        parallel.stage("tape-archive").unwrap().volume_in
    );
    assert!(
        parallel.stage("ship-disks").unwrap().completed_at
            < serial.stage("ship-disks").unwrap().completed_at
    );
}

/// Two Process stages sharing one pool both make progress under fair-share
/// rotation, whatever the seed: with equal work on both sides
/// neither stage can monopolise the pool, so the two finish within a
/// couple of task durations of each other and every byte is processed.
#[test]
fn rotation_never_starves_a_pool_sharer() {
    check("rotation_never_starves_a_pool_sharer", 64, |g| {
        let s = SharedPoolScenario::new(g.any::<u64>());
        let report = s.run();
        for stage in [SharedPoolScenario::LEFT, SharedPoolScenario::RIGHT] {
            let m = report.stage(stage).unwrap();
            assert!(m.blocks_out > 0, "stage {} never completed a task", stage);
            assert_eq!(m.volume_out, m.volume_in);
            assert!(m.final_queue_volume.is_zero());
        }
        let gap = SharedPoolScenario::completion_gap(&report);
        assert!(
            gap <= s.task_duration() * 2,
            "fair rotation left a {} completion gap (task duration {})",
            gap,
            s.task_duration()
        );
    });
}
