//! Integration: all three paper-scale flows run on the shared simulation
//! substrate, and their Section-5 contrasts hold simultaneously.

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, CleoFlowParams, WILSON_POOL};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::{DataVolume, SimDuration};
use sciflow_simnet::profiles;
use sciflow_simnet::transfer::{compare, TransferMode};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

#[test]
fn the_three_flows_reproduce_the_section_five_contrasts() {
    // --- Run one month of each project -----------------------------------
    let arecibo = FlowSim::new(
        arecibo_flow_graph(&AreciboFlowParams { weeks: 4, ..AreciboFlowParams::default() }),
        vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)],
    )
    .unwrap()
    .run()
    .unwrap();
    let cleo = FlowSim::new(
        cleo_flow_graph(&CleoFlowParams { runs: 240, ..CleoFlowParams::default() }),
        vec![CpuPool::new(WILSON_POOL, 64)],
    )
    .unwrap()
    .run()
    .unwrap();
    let weblab = FlowSim::new(
        weblab_flow_graph(&WeblabFlowParams { days: 30, ..WeblabFlowParams::default() }),
        vec![CpuPool::new(WEBLAB_POOL, 16)],
    )
    .unwrap()
    .run()
    .unwrap();

    // --- Raw data accumulation: "a difference of about two orders of
    //     magnitude between CLEO and the Petabyte-scale Arecibo and WebLab
    //     projects" (per unit time, Arecibo ≫ CLEO). --------------------
    let arecibo_raw = arecibo.stage("acquire").unwrap().volume_out;
    let cleo_raw = cleo.stage("acquire-runs").unwrap().volume_out;
    let weblab_raw = weblab.stage("internet-archive").unwrap().volume_out;
    let ratio = arecibo_raw.bytes() as f64 / cleo_raw.bytes() as f64;
    assert!(ratio > 5.0, "Arecibo should dwarf CLEO: {ratio}");
    assert!(arecibo_raw > weblab_raw, "per-month Arecibo exceeds the WebLab transfer");

    // --- Processing locus -------------------------------------------------
    // CLEO keeps up on site with a modest farm...
    let cleo_lag = cleo
        .stage("post-reconstruction")
        .unwrap()
        .completed_at
        .checked_sub(cleo.source_end.unwrap())
        .unwrap_or_default();
    assert!(cleo_lag < SimDuration::from_days(1), "CLEO on-site lag {cleo_lag}");
    // ...while Arecibo needs a large off-site pool that ends up heavily used.
    let ctc = arecibo.pool(CTC_POOL).unwrap();
    assert!(ctc.peak_in_use > 50, "CTC pool peak {}", ctc.peak_in_use);

    // --- Transport decisions ----------------------------------------------
    let shipping = compare(
        DataVolume::tb(10),
        &profiles::arecibo_uplink(),
        &profiles::ata_disk(),
        &profiles::arecibo_to_ctc(),
    );
    assert_eq!(shipping.winner, TransferMode::Shipping, "Arecibo ships disks");
    let weblab_link = profiles::internet2_100();
    assert!(
        weblab_link.sustained_rate().over(SimDuration::from_days(1)) > DataVolume::gb(250),
        "the dedicated link carries the 250 GB/day target"
    );

    // --- Long-term archiving: everything lands in managed storage ---------
    assert!(arecibo.retained_storage > DataVolume::tb(50));
    assert!(cleo.retained_storage > DataVolume::ZERO);
    assert!(weblab.retained_storage > DataVolume::tb(5));
}
