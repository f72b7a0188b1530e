//! Deterministic tracing and critical-path analysis on the Arecibo flow.
//!
//! ```text
//! cargo run -p sciflow-examples --bin tracing [TRACE_JSON_PATH]
//! ```
//!
//! Runs the survey flow with the observation preset and a [`TraceRecorder`]
//! attached, then answers the paper's capacity question — what is the flow
//! actually waiting on? — three ways:
//!
//! * the in-report time series (queue depth, pool occupancy, sink volume);
//! * the critical-path bottleneck table, which names the disk-shipping
//!   channel as the dominant term of the makespan;
//! * a Chrome `trace_event` JSON (default `target/arecibo-trace.json`) —
//!   load it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//!   to see every task and shipment as a slice on its stage's track — and
//!   beside it the JSONL event log, one event a line (same path, `.jsonl`).

use sciflow_arecibo::{arecibo_flow_graph, arecibo_observe_preset, AreciboFlowParams, CTC_POOL};
use sciflow_core::critical_path;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::trace::TraceRecorder;

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "target/arecibo-trace.json".to_string());

    let params = AreciboFlowParams::default();
    let mut graph = arecibo_flow_graph(&params);
    graph.set_observe(arecibo_observe_preset());
    let trace = TraceRecorder::new();
    let report =
        FlowSim::new(graph, vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)])
            .expect("valid flow")
            .with_observer(trace.clone())
            .run()
            .expect("flow completes");

    println!(
        "{} weeks of survey data, done at {} ({} trace events)",
        params.weeks,
        report.finished_at,
        trace.len(),
    );

    // The sampled telemetry rides inside the report itself.
    let ts = report.timeseries.as_ref().expect("observation preset enables telemetry");
    let peak_cpus = ts.samples.iter().map(|s| s.pool_in_use.iter().sum::<u32>()).max().unwrap_or(0);
    println!(
        "telemetry: {} samples every {}, peak {} cpus in use",
        ts.samples.len(),
        ts.tick,
        peak_cpus,
    );

    // Where did the makespan go? Walk the trace's critical chain. The
    // report's Display already ranks stages by attributed share.
    let snapshot = trace.snapshot();
    let cp = critical_path(&snapshot, report.finished_at);
    println!("\n{cp}");

    // At the survey data rate the serial disk-shipping channel, not the CPU
    // farm, owns the makespan — the paper's "primarily transported ... by
    // shipping disks" channel is the term worth widening.
    let dominant = cp.dominant().expect("a non-empty run has a dominant stage");
    assert_eq!(dominant.name, "ship-disks", "expected the shipping channel to dominate");
    println!("\ndominant: {} ({:.1}% of the makespan)", dominant.name, dominant.share * 100.0);

    // Export the full trace for Perfetto / chrome://tracing, and the event
    // log beside it, from the snapshot already decoded for the critical path.
    let chrome = snapshot.chrome_trace();
    let out_path = std::path::Path::new(&out_path);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create trace output dir");
    }
    std::fs::write(out_path, &chrome).expect("write trace file");
    println!(
        "wrote {} ({} bytes) — load it at https://ui.perfetto.dev",
        out_path.display(),
        chrome.len()
    );
    let jsonl_path = out_path.with_extension("jsonl");
    let jsonl = snapshot.jsonl();
    std::fs::write(&jsonl_path, &jsonl).expect("write event log");
    println!("wrote {} ({} bytes, one event a line)", jsonl_path.display(), jsonl.len());
}
