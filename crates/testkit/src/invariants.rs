//! Invariant checkers: the properties a faulty-but-retrying flow must keep.
//!
//! Exact-value assertions rot the moment a profile constant moves; these
//! checkers state what must be true of *any* run — bytes are conserved
//! across retries, simulated time only moves forward, provenance hashes are
//! replay-stable — and panic with a diagnostic when violated.

use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageKind};
use sciflow_core::metrics::{SimReport, StageMetrics};
use sciflow_core::spec::{DedupSpec, FilterSpec, ProcessSpec};
use sciflow_core::trace::{TraceEvent, TraceSnapshot};
use sciflow_core::units::{DataVolume, SimDuration};

/// Monotone simulated time for a flow report: no stage completes after the
/// simulation ends, and the sources stop before the flow finishes.
pub fn assert_monotone_sim_time(report: &SimReport) {
    for s in &report.stages {
        assert!(
            s.completed_at <= report.finished_at,
            "stage `{}` completed at {} after the simulation finished at {}",
            s.name,
            s.completed_at,
            report.finished_at
        );
    }
    if let Some(end) = report.source_end {
        assert!(
            end <= report.finished_at,
            "sources ended at {end} after the simulation finished at {}",
            report.finished_at
        );
    }
}

/// Conservation of bytes across retries for a transfer *stage* in a flow:
/// everything that arrived was either delivered, abandoned (counted as
/// lost), or is still queued — retries may inflate wire traffic but never
/// create or destroy payload.
pub fn assert_flow_transfer_conservation(s: &StageMetrics) {
    let stage = &s.name;
    let accounted = s.volume_out + s.volume_lost + s.final_queue_volume;
    assert_eq!(
        s.volume_in, accounted,
        "stage `{stage}`: in {} != out {} + lost {} + queued {}",
        s.volume_in, s.volume_out, s.volume_lost, s.final_queue_volume
    );
    assert!(
        s.blocks_in >= s.blocks_out + s.blocks_failed,
        "stage `{stage}`: {} blocks in < {} delivered + {} failed",
        s.blocks_in,
        s.blocks_out,
        s.blocks_failed
    );
    if s.final_queue_volume.is_zero() {
        assert_eq!(
            s.blocks_in,
            s.blocks_out + s.blocks_failed,
            "stage `{stage}`: with an empty final queue every block is delivered or failed"
        );
    }
}

/// Crash-recovery conservation for a compute stage: crashes kill running
/// tasks but never destroy payload. On a flow that ran to completion the
/// stage's queue is empty, every microsecond of work a crash destroyed was
/// replayed after requeue, and a crash-free stage reports no lost work.
pub fn assert_crash_recovery(report: &SimReport, stage: &str) {
    let s = report.stage(stage).unwrap_or_else(|| panic!("no stage named `{stage}` in report"));
    assert!(
        s.final_queue_volume.is_zero(),
        "stage `{stage}`: {} still queued after the flow finished",
        s.final_queue_volume
    );
    assert_eq!(
        s.work_replayed, s.work_lost,
        "stage `{stage}`: lost {} but replayed {} — destroyed work must be exactly redone",
        s.work_lost, s.work_replayed
    );
    if s.crashes == 0 {
        assert!(
            s.work_lost.is_zero(),
            "stage `{stage}`: {} work lost without any crash",
            s.work_lost
        );
    }
}

/// The checkpoint guarantee: one crash can destroy at most one checkpoint
/// interval of useful work plus the checkpoint write that was in progress,
/// so total lost work is bounded by `(every + cost) × crashes`. With no
/// checkpointing there is no bound to check.
pub fn assert_checkpoint_bound(report: &SimReport, stage: &str, policy: CheckpointPolicy) {
    let s = report.stage(stage).unwrap_or_else(|| panic!("no stage named `{stage}` in report"));
    if let CheckpointPolicy::Interval { every, cost } = policy {
        let bound = (every + cost) * s.crashes;
        assert!(
            s.work_lost <= bound,
            "stage `{stage}`: lost {} over {} crashes, above the checkpoint bound {}",
            s.work_lost,
            s.crashes,
            bound
        );
    }
}

/// The end-to-end integrity audit: silent corruption is conserved. Every
/// taint unit injected somewhere in the flow is either detected (caught by a
/// verification check, or contained when its block was destroyed in transit)
/// or escaped (reached a stage unchecked) — never both, never lost track of.
/// Per stage, quarantining requires detecting: a stage cannot pull more
/// blocks from the flow than checks (or losses) justified.
pub fn assert_integrity_audit(report: &SimReport) {
    assert_eq!(
        report.total_corrupt_injected(),
        report.total_corrupt_detected() + report.total_corrupt_escaped(),
        "taint audit broken: injected {} != detected {} + escaped {}",
        report.total_corrupt_injected(),
        report.total_corrupt_detected(),
        report.total_corrupt_escaped()
    );
    for s in &report.stages {
        assert!(
            s.quarantined <= s.corrupt_detected,
            "stage `{}` quarantined {} blocks but detected only {} taint units",
            s.name,
            s.quarantined,
            s.corrupt_detected
        );
    }
}

/// `TaskStart`s with no matching `TaskEnd`/`CrashKill` — always zero for
/// a run that went to quiescence.
fn open_tasks(snapshot: &TraceSnapshot) -> usize {
    let mut open = Vec::new();
    for (_, ev) in &snapshot.events {
        match ev {
            TraceEvent::TaskStart { stage, task, .. } => open.push((*stage, *task)),
            TraceEvent::TaskEnd { stage, task, .. } | TraceEvent::CrashKill { stage, task, .. } => {
                if let Some(i) = open.iter().position(|o| *o == (*stage, *task)) {
                    open.swap_remove(i);
                }
            }
            _ => {}
        }
    }
    open.len()
}

/// Trace/report conservation: the recorded trace and the aggregate report
/// are two views of the same run and must agree exactly. Every `TaskStart`
/// is closed by a `TaskEnd` or `CrashKill` (no span leaks past quiescence),
/// and per stage the wall-clock spans — tasks, killed tasks, transfer
/// attempts — plus the verification costs sum to precisely
/// [`sciflow_core::metrics::StageMetrics::busy`].
pub fn assert_trace_conservation(report: &SimReport, snapshot: &TraceSnapshot) {
    assert_eq!(
        open_tasks(snapshot),
        0,
        "every TaskStart must be closed by a TaskEnd or CrashKill after quiescence"
    );
    let n = snapshot.meta.stages.len();
    let mut activity = vec![SimDuration::ZERO; n];
    for span in snapshot.spans() {
        activity[span.stage.index()] += span.duration();
    }
    for (_, ev) in &snapshot.events {
        if let TraceEvent::VerifyCheck { stage, cost, .. } = ev {
            activity[stage.index()] += *cost;
        }
    }
    for (i, name) in snapshot.meta.stages.iter().enumerate() {
        let m = report.stage(name).unwrap_or_else(|| {
            panic!("trace names stage `{name}` but the report has no such stage")
        });
        assert_eq!(
            activity[i], m.busy,
            "stage `{name}`: trace spans + verify costs sum to {} but the report says busy {}",
            activity[i], m.busy
        );
    }
}

/// Conservation of bytes over an *arbitrary* flow graph — the workload-zoo
/// law. Two families of checks, each applied where its preconditions hold:
///
/// 1. **Edge sums.** Fan-out copies: a stage delivers its full output along
///    every outgoing edge, so each consumer's arrivals equal the sum of its
///    producers' emissions, exactly. Only meaningful while no block was
///    quarantined or lineage-reprocessed anywhere (reprocessing re-enqueues
///    blocks outside the edge relation), so the whole family is gated on
///    the report's totals.
/// 2. **Per-kind throughput.** Whatever a stage settled (arrived, not still
///    queued, not abandoned) relates to what it emitted by the stage kind's
///    own ratio: transfers and batchers conserve exactly, processes and
///    filters scale by their configured ratio (to within one byte of
///    rounding per block), dedup stages land between `unique_ratio` and
///    full volume (the warm-up window forwards in full). Checked per stage,
///    skipped for stages that quarantined blocks.
///
/// `ledger_underflows` must always be zero, whatever the run regime.
pub fn assert_generated_conservation(graph: &FlowGraph, report: &SimReport) {
    assert_eq!(
        report.ledger_underflows, 0,
        "storage ledger underflowed {} time(s)",
        report.ledger_underflows
    );
    let edge_sums_apply = report.total_quarantined() == 0 && report.total_reprocessed_blocks() == 0;
    for id in graph.stage_ids() {
        let stage = graph.stage(id);
        let m = report
            .stage(&stage.name)
            .unwrap_or_else(|| panic!("graph stage `{}` missing from report", stage.name));
        if edge_sums_apply && !matches!(stage.kind, StageKind::Source(_)) {
            let fed: DataVolume = graph
                .upstream(id)
                .iter()
                .map(|&u| {
                    report.stage(&graph.stage(u).name).expect("upstream in report").volume_out
                })
                .sum();
            assert_eq!(
                m.volume_in, fed,
                "stage `{}`: arrived {} but its producers emitted {}",
                stage.name, m.volume_in, fed
            );
        }
        if m.quarantined > 0 {
            continue; // quarantined blocks leave the flow outside the ratio laws
        }
        let settled = m
            .volume_in
            .bytes()
            .checked_sub(m.final_queue_volume.bytes() + m.volume_lost.bytes())
            .unwrap_or_else(|| {
                panic!(
                    "stage `{}`: queued {} + lost {} exceed arrivals {}",
                    stage.name, m.final_queue_volume, m.volume_lost, m.volume_in
                )
            });
        // One byte of rounding slack per emission and per arrival.
        let tol = m.blocks_in + m.blocks_out + 1;
        let out = m.volume_out.bytes();
        match stage.kind {
            StageKind::Transfer(_) | StageKind::Batcher(_) => {
                assert_eq!(
                    out, settled,
                    "stage `{}`: emitted {} of the {} settled bytes (must conserve exactly)",
                    stage.name, m.volume_out, settled
                );
            }
            StageKind::Process(ProcessSpec { output_ratio, .. }) => {
                assert_ratio_law(&stage.name, out, settled, output_ratio, tol);
            }
            StageKind::Filter(FilterSpec { accept_ratio, .. }) => {
                assert_ratio_law(&stage.name, out, settled, accept_ratio, tol);
            }
            StageKind::Dedup(DedupSpec { unique_ratio, .. }) => {
                let floor = DataVolume::from_bytes(settled).scale(unique_ratio).bytes();
                assert!(
                    out + tol >= floor && out <= settled + tol,
                    "stage `{}`: emitted {} outside the dedup envelope [{}, {}]",
                    stage.name,
                    out,
                    floor,
                    settled
                );
            }
            StageKind::Source(_) | StageKind::Archive => {}
        }
    }
}

fn assert_ratio_law(name: &str, out: u64, settled: u64, ratio: f64, tol: u64) {
    let expected = DataVolume::from_bytes(settled).scale(ratio).bytes();
    assert!(
        out.abs_diff(expected) <= tol,
        "stage `{name}`: emitted {out} bytes but ratio {ratio} of {settled} settled bytes \
         predicts {expected} (±{tol})"
    );
}

/// A finished run left nothing behind: every stage's input queue is empty.
/// Holds for any clean (fault-free) run of a generated graph, and for any
/// faulty run whose retry policy never abandons into a stuck state.
pub fn assert_generated_drained(report: &SimReport) {
    for s in &report.stages {
        assert!(
            s.final_queue_volume.is_zero(),
            "stage `{}`: {} still queued after the flow finished",
            s.name,
            s.final_queue_volume
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::trace::TraceMeta;
    use sciflow_core::units::SimTime;

    #[test]
    fn unmatched_starts_are_counted_open() {
        let stage = FlowGraph::new().add_stage("s", StageKind::Archive);
        let snapshot = TraceSnapshot {
            meta: TraceMeta { stages: vec!["s".into()], resources: Vec::new() },
            events: vec![(
                SimTime::from_micros(1),
                TraceEvent::TaskStart {
                    stage,
                    task: 7,
                    lineage: 1,
                    volume: DataVolume::ZERO,
                    units: 1,
                },
            )],
        };
        assert_eq!(snapshot.spans().len(), 0);
        assert_eq!(open_tasks(&snapshot), 1);
    }
}
