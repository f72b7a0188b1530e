//! Fleet-wide metrics and SLO monitoring, end to end.
//!
//! ```text
//! cargo run -p sciflow-examples --bin slo
//! ```
//!
//! Two halves, mirroring the two places the paper's operators watched:
//!
//! * **Flow SLOs** — the CLEO reconstruction flow on a starved one-CPU
//!   farm, with the preset backlog/taint rules attached. The backlog rule
//!   fires while acquisition outruns reconstruction and resolves when the
//!   farm drains; the run also records engine counters into a
//!   [`MetricsHub`], rendered as Prometheus exposition text at the end.
//! * **Replica SLOs** — a three-store fleet synced over faulty links, with
//!   a replication-lag rule on the fabric. Lag is the fleet-wide
//!   version-vector shortfall: positive exactly while any store is behind,
//!   zero exactly at quiescence.
//!
//! Everything here is deterministic: same seeds, byte-identical metrics —
//! and recording is strictly one-way, so the run itself is byte-identical
//! to an unmonitored one.

use sciflow_cleo::{cleo_flow_graph, cleo_slo_preset, CleoFlowParams, WILSON_POOL};
use sciflow_core::fault::{FaultPlan, FaultProfile};
use sciflow_core::md5::md5;
use sciflow_core::obs::{MetricsHub, SloRule};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::SimDuration;
use sciflow_core::version::CalDate;
use sciflow_eventstore::replica::{replication_lag, Replica, SyncFabric, SyncLink};
use sciflow_eventstore::{FileRecord, RunRange, StoreTier};

fn main() {
    // --- flow half: CLEO on a starved farm ---
    let hub = MetricsHub::new();
    let params = CleoFlowParams::default();
    let mut graph = cleo_flow_graph(&params);
    graph.set_slos(cleo_slo_preset(&params)); // backlog + taint rules
    let report = FlowSim::new(
        graph,
        vec![CpuPool::new(WILSON_POOL, 1)], // one CPU: ~3.5 h/run vs hourly arrivals
    )
    .expect("valid flow")
    .with_metrics(hub.clone())
    .run()
    .expect("flow completes");

    println!("CLEO on a one-CPU farm, done at {}", report.finished_at);
    let alerts = report.alerts.as_ref().expect("SLO-bearing flow renders alerts");
    for alert in alerts {
        println!("  {alert}");
    }

    // --- replica half: a diverged fleet with a lag SLO on the fabric ---
    let mut replicas = vec![
        Replica::new(1, StoreTier::Collaboration),
        Replica::new(2, StoreTier::Group),
        Replica::new(3, StoreTier::Personal),
    ];
    for id in 0..40u64 {
        let rec = FileRecord {
            id,
            runs: RunRange::single(600 + id as u32),
            kind: "recon".into(),
            version: "v1".into(),
            site: "Cornell".into(),
            registered: CalDate::new(2005, 6, 1).unwrap(),
            location: format!("/data/{id}"),
            prov_digest: md5(format!("{id}").as_bytes()),
        };
        replicas[(id % 3) as usize].register(&rec).unwrap();
    }
    println!("\nfleet lag before sync: {}", replication_lag(&replicas).unwrap());

    let profile = FaultProfile::replica_chaos();
    let mut fabric = SyncFabric::new()
        .with_metrics(hub.clone())
        .with_slo(SloRule::replication_lag("fleet-lag", 0));
    for (i, (a, b)) in [(0, 1), (1, 2)].iter().enumerate() {
        let plan = FaultPlan::generate(900 + i as u64, SimDuration::from_days(2), &profile);
        fabric.connect(*a, *b, SyncLink::new(plan));
    }
    let rounds = fabric.settle(&mut replicas, 300).expect("fleet quiesces");
    println!("fleet lag after {rounds} rounds: {}", replication_lag(&replicas).unwrap());
    for alert in fabric.alerts() {
        println!("  {alert}");
    }

    // --- the hub saw both halves; render it once, Prometheus-style ---
    println!("\n--- exposition ({} series) ---", hub.len());
    print!("{}", hub.render_prometheus());
}
