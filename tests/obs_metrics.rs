//! Observability is strictly one-way: attaching a [`MetricsHub`] or SLO
//! rules must never change what the simulator computes.
//!
//! Three pins enforce that:
//!
//! 1. **Zero perturbation** — the committed goldens under `tests/golden/`
//!    were captured from *uninstrumented* runs. Re-running the same flows
//!    with a hub attached must reproduce them byte for byte.
//! 2. **Exposition determinism** — same seed, same flow → byte-identical
//!    Prometheus text, across the whole `FAULT_MATRIX_SEED` sweep, and the
//!    text parses under the exposition-format validator.
//! 3. **Golden exposition** — the default CLEO flow's metrics render to a
//!    committed `.prom` snapshot, pinning metric names, label syntax, and
//!    bucket layout. Regenerate with `UPDATE_GOLDEN=1` only for an
//!    intentional schema change.

use std::path::PathBuf;

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, cleo_slo_preset, CleoFlowParams, WILSON_POOL};
use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::genflow::{generate, Archetype, SEED_PAYLOAD_MASK};
use sciflow_core::graph::{FlowGraph, StageKind, VerifyPolicy};
use sciflow_core::metrics::SimReport;
use sciflow_core::obs::{MetricsHub, SloRule};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::spec::{FlowSpec, SourceSpec, TransferSpec};
use sciflow_core::units::{DataRate, DataVolume, SimDuration};
use sciflow_testkit::{
    assert_deterministic, assert_exposition_deterministic, assert_matches_golden,
    assert_matches_golden_text, derive_seed, matrix_seed,
};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

/// Seed the committed goldens were captured under (`golden_reports.rs`).
const GOLDEN_SEED: u64 = 42;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name)
}

/// The same faulted-WebLab construction as `golden_reports.rs`, with an
/// optional hub wired in.
fn weblab_report(seed: u64, hub: Option<MetricsHub>) -> SimReport {
    let plan = FaultPlan::generate(seed, SimDuration::from_days(30), &FaultProfile::flaky());
    let graph = weblab_flow_graph(&WeblabFlowParams::default());
    let mut sim = FlowSim::new(graph, vec![CpuPool::new(WEBLAB_POOL, 16)])
        .expect("valid flow")
        .with_faults(plan, RetryPolicy::default());
    if let Some(h) = hub {
        sim = sim.with_metrics(h);
    }
    sim.run().expect("flow completes")
}

fn cleo_report(hub: Option<MetricsHub>) -> SimReport {
    let graph = cleo_flow_graph(&CleoFlowParams::default());
    let mut sim = FlowSim::new(graph, vec![CpuPool::new(WILSON_POOL, 32)]).expect("valid flow");
    if let Some(h) = hub {
        sim = sim.with_metrics(h);
    }
    sim.run().expect("flow completes")
}

fn arecibo_report(hub: Option<MetricsHub>) -> SimReport {
    let graph = arecibo_flow_graph(&AreciboFlowParams::default());
    let pools = vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)];
    let mut sim = FlowSim::new(graph, pools).expect("valid flow");
    if let Some(h) = hub {
        sim = sim.with_metrics(h);
    }
    sim.run().expect("flow completes")
}

// --- 1. zero perturbation against the committed goldens ---

/// The strongest form of the claim: reports produced *with* a hub attached
/// match the goldens captured *without* one, byte for byte.
#[test]
fn instrumented_runs_match_uninstrumented_goldens() {
    let hub = MetricsHub::new();
    assert_matches_golden(golden_path("arecibo_clean.txt"), &arecibo_report(Some(hub.clone())));
    assert_matches_golden(golden_path("cleo_clean.txt"), &cleo_report(Some(hub.clone())));
    assert_matches_golden(
        golden_path("weblab_faulted.txt"),
        &weblab_report(GOLDEN_SEED, Some(hub.clone())),
    );
    // The hub really was recording while those reports stayed pinned.
    assert!(hub.value("sim_events_total").unwrap_or(0) > 0, "hub never saw an event");
}

/// The JSON export is held to the same standard as the text rendering.
#[test]
fn instrumented_cleo_json_matches_golden() {
    let report = cleo_report(Some(MetricsHub::new()));
    assert_matches_golden_text(golden_path("cleo_baseline.json"), &report.to_json());
}

// --- 2. exposition determinism across the seed matrix ---

/// Two identically-seeded runs must render identical Prometheus text, and
/// that text must survive the exposition-format validator. Runs under the
/// whole `FAULT_MATRIX_SEED` sweep in CI; locally checks every matrix seed.
#[test]
fn prometheus_exposition_is_deterministic_per_seed() {
    let sweep = [matrix_seed(42), 7, 1234, 9001];
    for seed in sweep {
        let families = assert_exposition_deterministic(seed, |s| {
            let hub = MetricsHub::new();
            let _ = weblab_report(s, Some(hub.clone()));
            hub.render_prometheus()
        });
        assert!(families > 0, "seed {seed}: empty exposition");
    }
}

/// The stable-key JSON rendering is deterministic too — same discipline,
/// cheaper format.
#[test]
fn json_metrics_are_deterministic() {
    let text = assert_deterministic(GOLDEN_SEED, |seed| {
        let hub = MetricsHub::new();
        let _ = weblab_report(seed, Some(hub.clone()));
        hub.render_json()
    });
    assert!(text.contains("\"sim_events_total\""));
}

// --- 3. committed exposition golden ---

/// Pins the exposition schema itself: metric names, HELP/TYPE lines, label
/// syntax, and the log-linear bucket layout for the default CLEO flow.
#[test]
fn cleo_exposition_matches_golden() {
    let hub = MetricsHub::new();
    let _ = cleo_report(Some(hub.clone()));
    assert_matches_golden_text(golden_path("cleo_metrics.prom"), &hub.render_prometheus());
}

// --- SLO alerts ---

/// The CLEO preset rules evaluated on a starved Wilson-lab farm: one CPU
/// reconstructs at ~3.5 h/run against hourly arrivals, so the backlog
/// breaches the eight-run ceiling, fires, and resolves once acquisition
/// stops and the farm drains; taint never escapes. Pinned as a golden so
/// alert timing is part of the committed surface.
#[test]
fn cleo_slo_alerts_match_golden() {
    let mut graph = cleo_flow_graph(&CleoFlowParams::default());
    graph.set_slos(cleo_slo_preset(&CleoFlowParams::default()));
    let report = FlowSim::new(graph, vec![CpuPool::new(WILSON_POOL, 1)])
        .expect("valid flow")
        .run()
        .expect("flow completes");
    let alerts = report.alerts.as_ref().expect("SLO-bearing flow renders alerts");
    let mut text = String::new();
    for a in alerts {
        text.push_str(&format!("{a}\n"));
    }
    if text.is_empty() {
        text.push_str("(no alerts)\n");
    }
    assert_matches_golden_text(golden_path("cleo_slo_alerts.txt"), &text);
}

// --- the escape total and the batched event counter ---

/// A flow with no verifier anywhere, under a timeline dense in silent
/// corruption: taint really escapes, so an `escaped_taint` rule has
/// something to fire on.
struct Leaky {
    name: String,
    graph: FlowGraph,
    pools: Vec<CpuPool>,
    plan: FaultPlan,
}

impl Leaky {
    fn zoo(archetype: Archetype, seed: u64) -> Leaky {
        let flow = generate(archetype, seed);
        let mut graph = flow.graph.clone();
        for id in graph.stage_ids() {
            graph.set_verify(id, VerifyPolicy::None);
        }
        let plan = FaultPlan::generate(seed, flow.horizon, &flow.corrupt_profile());
        Leaky { name: format!("({}, {seed:#x})", archetype.name()), graph, pools: flow.pools, plan }
    }

    /// A source feeding a transfer nothing consumes: whatever the wire
    /// corrupts leaves the flow through the terminal `deliver_tainted`.
    fn open_ended_wire(seed: u64) -> Leaky {
        let graph = FlowSpec::new()
            .source("src", SourceSpec::new(DataVolume::gb(1), SimDuration::from_secs(20), 200))
            .transfer("wire", TransferSpec::new(DataRate::mb_per_sec(100.0)), &["src"])
            .build()
            .expect("valid flow");
        let profile = FaultProfile::flaky().with_silent_corruption(720.0);
        let plan = FaultPlan::generate(seed, SimDuration::from_hours(2), &profile);
        Leaky { name: format!("open-ended wire {seed:#x}"), graph, pools: vec![], plan }
    }

    fn sim(&self, ceiling: u64) -> FlowSim {
        let mut graph = self.graph.clone();
        graph.set_slos(vec![SloRule::escaped_taint("escapes", ceiling)]);
        FlowSim::new(graph, self.pools.clone())
            .expect("valid flow")
            .with_faults(self.plan.clone(), RetryPolicy::default())
    }
}

fn leaky_population() -> Vec<Leaky> {
    let master = matrix_seed(42);
    let mut flows = vec![Leaky::open_ended_wire(master)];
    for archetype in Archetype::ALL {
        for i in 0..4 {
            let seed = derive_seed(master, &format!("zoo-slo-{}-{i}", archetype.name()))
                & SEED_PAYLOAD_MASK;
            flows.push(Leaky::zoo(archetype, seed));
        }
    }
    flows
}

/// How one run's taint escaped: `(counted at a sink's unchecked arrival,
/// injected by a terminal stage and counted as it left the flow)`.
fn escape_paths(flow: &Leaky, report: &SimReport) -> (u64, u64) {
    let (mut at_arrival, mut at_terminal_delivery) = (0, 0);
    for id in flow.graph.stage_ids().filter(|&id| flow.graph.downstream(id).is_empty()) {
        let m = report.stage(&flow.graph.stage(id).name).expect("every stage is reported");
        // An archive injects nothing; a terminal transfer's own injections
        // can only have left through its delivery.
        let own = if matches!(flow.graph.stage(id).kind, StageKind::Archive) {
            0
        } else {
            m.corrupt_injected
        };
        at_terminal_delivery += own;
        at_arrival += m.corrupt_escaped - own;
    }
    (at_arrival, at_terminal_delivery)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sciflow-obs-{}-{name}.snapshot", std::process::id()))
}

/// The escape total the SLO reads is run state now, not a sum taken per
/// event, so it has to come out the same however the run is driven: in one
/// call, one event at a time, and through a snapshot and a fresh simulator
/// at every third event (where the total is derived from the restored
/// counters). Ceiling 0 fires on the first escape; ceiling k, half the
/// flow's escapes, fires mid-run.
#[test]
fn escaped_taint_alerts_are_the_same_however_the_run_is_driven() {
    let path = tmp("driven");
    let (mut at_arrival, mut at_terminal_delivery, mut fired_mid_run) = (0, 0, 0);
    for flow in leaky_population() {
        let baseline = flow.sim(0).run().expect("flow completes");
        let escaped = baseline.total_corrupt_escaped();
        for ceiling in [0, escaped / 2] {
            let whole = flow.sim(ceiling).run().expect("flow completes");
            let alerts = whole.alerts.as_ref().expect("rule attached");
            // Rules see the state as of the previous event, so an alert may
            // trail the final count (and miss an escape at the last event);
            // it can never pass it or come back down.
            assert!(alerts.len() <= usize::from(escaped > ceiling), "{}: {alerts:?}", flow.name);
            assert!(alerts
                .iter()
                .all(|a| a.resolved_at.is_none() && a.peak > ceiling && a.peak <= escaped));
            fired_mid_run += u64::from(ceiling > 0 && !alerts.is_empty());

            let mut stepped = flow.sim(ceiling);
            while stepped.run_for(1).expect("flow advances") {}
            let stepped = stepped.run().expect("flow completes");
            assert_eq!(stepped.alerts, whole.alerts, "{} stepped, ceiling {ceiling}", flow.name);

            let mut resumed = flow.sim(ceiling);
            while resumed.run_for(3).expect("flow advances") {
                resumed.snapshot_to(&path).expect("snapshot written");
                resumed = flow.sim(ceiling).resume_from(&path).expect("snapshot resumes");
            }
            let resumed = resumed.run().expect("flow completes");
            assert_eq!(resumed.alerts, whole.alerts, "{} resumed, ceiling {ceiling}", flow.name);
            assert_eq!(resumed.to_json(), whole.to_json(), "{} resumed", flow.name);
        }
        let (a, t) = escape_paths(&flow, &baseline);
        assert_eq!(a + t, escaped, "{}: every escape took one of the two paths", flow.name);
        at_arrival += a;
        at_terminal_delivery += t;
    }
    std::fs::remove_file(&path).expect("scratch snapshot removed");
    assert!(at_arrival > 0, "no taint escaped through a sink arrival");
    assert!(at_terminal_delivery > 0, "no taint escaped through a terminal delivery");
    assert!(fired_mid_run > 0, "no ceiling-k rule fired");
}

/// `sim_events_total` is added as each pump returns, not per event, so
/// check it wherever a caller can look: after every step of a stepped run
/// (a killed run is one stepped run dropped, with no report ever built)
/// and after a whole run.
#[test]
fn the_event_counter_is_current_wherever_a_caller_can_look() {
    for flow in leaky_population() {
        let hub = MetricsHub::new();
        flow.sim(0).with_metrics(hub.clone()).run().expect("flow completes");
        let total = hub.value("engine_events_handled").expect("gauge set by the report");
        assert_eq!(hub.value("sim_events_total"), Some(total), "{} whole", flow.name);

        let hub = MetricsHub::new();
        let mut stepped = flow.sim(0).with_metrics(hub.clone());
        while stepped.run_for(7).expect("flow advances") {
            assert_eq!(hub.value("sim_events_total"), Some(stepped.events_handled()));
        }
        stepped.run().expect("flow completes");
        assert_eq!(hub.value("sim_events_total"), Some(total), "{} stepped", flow.name);
        assert_eq!(hub.value("engine_events_handled"), Some(total));
    }
}
