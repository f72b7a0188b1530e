//! Quickstart: model a data flow and simulate it.
//!
//! ```text
//! cargo run -p sciflow-examples --bin quickstart
//! ```
//!
//! Builds a miniature three-stage scientific data flow (acquire → process →
//! archive) and runs it under the discrete-event simulator.

use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageKind};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};

fn main() {
    // --- 1. Describe the flow -------------------------------------------
    let mut g = FlowGraph::new();
    let acquire = g.add_stage(
        "acquire",
        StageKind::Source {
            block: DataVolume::gb(36), // a 3-hour observing session
            interval: SimDuration::from_hours(12),
            blocks: 6,
            start: SimTime::ZERO,
        },
    );
    let process = g.add_stage(
        "process",
        StageKind::Process {
            rate_per_cpu: DataRate::mb_per_sec(25.0),
            cpus_per_task: 1,
            chunk: Some(DataVolume::gb(4)),
            output_ratio: 0.02, // products are a few percent of raw
            pool: "farm".into(),
            workspace_ratio: 0.1,
            retain_input: true,
            checkpoint: CheckpointPolicy::None,
        },
    );
    let archive = g.add_stage("archive", StageKind::Archive);
    g.connect(acquire, process).expect("stages exist");
    g.connect(process, archive).expect("stages exist");

    // --- 2. Simulate it against a CPU pool ------------------------------
    let report = FlowSim::new(g, vec![CpuPool::new("farm", 8)])
        .expect("valid flow")
        .run()
        .expect("flow completes");
    println!("{report}");
    println!("kept up: {}", report.kept_up(SimDuration::from_hours(6)));
}
