//! Critical-path analysis: where did the makespan go?
//!
//! The paper's capacity planning questions ("about 50 to 200 processors
//! would be needed to keep up", "tested at sustained rates of approximately
//! 1 TB per day") are bottleneck questions: which stage or link is the flow
//! actually waiting on? [`critical_path`] answers them from a recorded
//! [`TraceSnapshot`]: it walks the activity [`crate::trace::Span`]s
//! backwards from the end
//! of the run, attributing every instant of the makespan to the stage whose
//! work was the *last to finish* at that instant — the classic
//! last-responsible-activity chain. Aggregated per stage and combined with a
//! busy/blocked/idle wall-clock breakdown, this names the bottleneck and
//! says whether it is saturated (busy), starved of resources (blocked), or
//! waiting for upstream data (idle).
//!
//! Definitions, per stage over the whole `[0, makespan]` window:
//!
//! * **busy** — wall-clock union of the stage's activity spans (tasks and
//!   transfer attempts). Parallel tasks overlap, so this is occupancy, not
//!   the cpu-time sum in [`crate::metrics::StageMetrics::busy`].
//! * **blocked** — time the stage's input queue was non-empty while nothing
//!   of its own was running: work was waiting but the stage could not start
//!   it (contended pool, no free channel).
//! * **idle** — the remainder: nothing queued, nothing running.
//! * **attributed** — the portion of the critical chain charged to this
//!   stage; summed over all stages plus
//!   [`CriticalPathReport::unattributed`] it tiles the makespan exactly.

use crate::graph::StageId;
use crate::trace::{Span, TraceEvent, TraceSnapshot};
use crate::units::{SimDuration, SimTime};

use std::cmp::Reverse;
use std::fmt;

/// One interval of the critical chain, attributed to the stage whose
/// activity was last to finish there (`None`: nothing was running anywhere —
/// the flow was waiting on source cadence or retry backoff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    pub stage: Option<StageId>,
    pub start: SimTime,
    pub end: SimTime,
}

impl PathSegment {
    pub fn duration(&self) -> SimDuration {
        self.end.checked_sub(self.start).unwrap_or(SimDuration::ZERO)
    }
}

/// Per-stage attribution and wall-clock breakdown (see the module docs for
/// the exact definitions).
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    pub stage: StageId,
    pub name: String,
    /// Critical-chain time charged to this stage.
    pub attributed: SimDuration,
    /// Wall-clock time with at least one span of this stage active.
    pub busy: SimDuration,
    /// Wall-clock time with input queued but nothing of this stage running.
    pub blocked: SimDuration,
    /// Everything else: nothing queued, nothing running.
    pub idle: SimDuration,
    /// `attributed / makespan`, in `[0, 1]`.
    pub share: f64,
}

/// The result of [`critical_path`]: the attributed chain plus per-stage
/// breakdowns, in stage order.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    pub makespan: SimTime,
    /// The critical chain in time order; segments tile `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    /// One breakdown per stage, in stage-id order.
    pub stages: Vec<StageBreakdown>,
    /// Chain time no stage was active for.
    pub unattributed: SimDuration,
}

impl CriticalPathReport {
    /// The `k` stages with the largest attributed share, descending; ties
    /// keep stage order. These are the bottlenecks worth buying hardware
    /// for, in priority order.
    pub fn top_bottlenecks(&self, k: usize) -> Vec<&StageBreakdown> {
        let mut ranked: Vec<&StageBreakdown> = self.stages.iter().collect();
        ranked.sort_by_key(|b| std::cmp::Reverse(b.attributed));
        ranked.truncate(k);
        ranked
    }

    /// The single stage the makespan is most attributable to.
    pub fn dominant(&self) -> Option<&StageBreakdown> {
        self.top_bottlenecks(1).into_iter().next()
    }
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical path over makespan {}", self.makespan)?;
        for b in self.top_bottlenecks(self.stages.len()) {
            if b.attributed.is_zero() && b.busy.is_zero() {
                continue;
            }
            writeln!(
                f,
                "  {:<24} attributed {:>14} ({:>5.1}%)  busy {:>14}  blocked {:>14}  idle {:>14}",
                b.name,
                b.attributed.to_string(),
                b.share * 100.0,
                b.busy.to_string(),
                b.blocked.to_string(),
                b.idle.to_string(),
            )?;
        }
        if !self.unattributed.is_zero() {
            writeln!(f, "  {:<24} attributed {:>14}", "(waiting)", self.unattributed.to_string())?;
        }
        Ok(())
    }
}

/// Attribute the makespan to stages by walking the recorded activity spans
/// backwards from `makespan` (typically
/// [`crate::metrics::SimReport::finished_at`]).
///
/// At each point the walk finds the span that was running then and, among
/// those, the one that finishes last; the interval back to that span's start
/// is charged to its stage and the walk jumps there. Intervals where nothing
/// ran anywhere become `stage: None` segments. The walk is deterministic
/// (ties prefer the later-starting span, then the lower stage id) and the
/// resulting segments tile `[0, makespan]` exactly. It costs one sort of the
/// spans plus one pass over them.
pub fn critical_path(snapshot: &TraceSnapshot, makespan: SimTime) -> CriticalPathReport {
    let spans = snapshot.spans();
    let n_stages = snapshot
        .meta
        .stages
        .len()
        .max(spans.iter().map(|s| s.stage.index() + 1).max().unwrap_or(0));

    let segments = last_responsible_chain(&spans, makespan);

    // Wall-clock interval sets per stage: activity (from spans) and
    // queued-input (from queue-depth changes), both clamped to the makespan.
    let mut active: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n_stages];
    for s in &spans {
        let end = s.end.min(makespan);
        if s.start < end {
            active[s.stage.index()].push((s.start, end));
        }
    }
    let mut queued: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n_stages];
    let mut queue_open: Vec<Option<SimTime>> = vec![None; n_stages];
    for (at, ev) in &snapshot.events {
        if let TraceEvent::QueueDepthChange { stage, blocks, .. } = ev {
            let slot = &mut queue_open[stage.index()];
            match (*blocks > 0, *slot) {
                (true, None) => *slot = Some(*at),
                (false, Some(open)) => {
                    if open < *at {
                        queued[stage.index()].push((open, *at));
                    }
                    *slot = None;
                }
                _ => {}
            }
        }
    }
    for (i, slot) in queue_open.into_iter().enumerate() {
        if let Some(open) = slot {
            if open < makespan {
                queued[i].push((open, makespan));
            }
        }
    }

    let mut attributed = vec![SimDuration::ZERO; n_stages];
    let mut unattributed = SimDuration::ZERO;
    for seg in &segments {
        match seg.stage {
            Some(id) => attributed[id.index()] += seg.duration(),
            None => unattributed += seg.duration(),
        }
    }

    let mut stages = Vec::with_capacity(n_stages);
    for i in 0..n_stages {
        let busy_iv = merge(std::mem::take(&mut active[i]));
        let queued_iv = merge(std::mem::take(&mut queued[i]));
        let busy = measure(&busy_iv);
        let blocked = measure(&subtract(&queued_iv, &busy_iv));
        let total = SimDuration::from_micros(makespan.as_micros());
        let idle = total.saturating_sub(busy + blocked);
        let share = if makespan.as_micros() == 0 {
            0.0
        } else {
            attributed[i].as_micros() as f64 / makespan.as_micros() as f64
        };
        stages.push(StageBreakdown {
            stage: StageId(i),
            name: snapshot.stage_name(StageId(i)).to_string(),
            attributed: attributed[i],
            busy,
            blocked,
            idle,
            share,
        });
    }

    CriticalPathReport { makespan, segments, stages, unattributed }
}

/// The backward last-responsible-activity walk, in time order.
///
/// At time `t` the candidates are the spans with `start < t`, each keyed by
/// `min(end, t)`; the walk takes the largest key, ties going to the later
/// start, then the lower stage id (the span index only makes the order
/// total: spans still tied produce the same segment). Sorting the spans by
/// `(start, stage descending, index descending)` turns both halves of that
/// into positions: the candidates are a prefix, which only shrinks as `t`
/// falls, and among equal keys the winner is the one sorted last.
///
/// * If some candidate is still running at `t` (the prefix's largest `end`
///   reaches `t`), every such span has key `t`, so the winner is the last of
///   them in the prefix: scan back from the prefix's end. The walk then jumps
///   to the winner's start, which drops the winner and everything scanned
///   (all sorted after it, so starting no earlier) out of the prefix — each
///   span is scanned at most once over the whole walk.
/// * Otherwise nothing ran at `t`, the key is `end`, and the winner is the
///   prefix's arg-max of `end` with ties to the later position, read from a
///   table built in one pass.
fn last_responsible_chain(spans: &[Span], makespan: SimTime) -> Vec<PathSegment> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| (spans[i].start, Reverse(spans[i].stage), Reverse(i)));
    // latest_end[p]: the position in `order[..=p]` of the span ending last,
    // the later position on ties.
    let mut latest_end: Vec<usize> = Vec::with_capacity(order.len());
    for (p, &i) in order.iter().enumerate() {
        match latest_end.last() {
            Some(&q) if spans[order[q]].end > spans[i].end => latest_end.push(q),
            _ => latest_end.push(p),
        }
    }

    let mut segments: Vec<PathSegment> = Vec::new();
    let mut t = makespan;
    // `order[..live]` are the spans starting before `t`.
    let mut live = order.partition_point(|&i| spans[i].start < t);
    while t > SimTime::ZERO {
        if live == 0 {
            segments.push(PathSegment { stage: None, start: SimTime::ZERO, end: t });
            break;
        }
        let mut p = latest_end[live - 1];
        let key = spans[order[p]].end.min(t);
        if key == t {
            p = live - 1;
            while spans[order[p]].end < t {
                p -= 1;
            }
        } else {
            segments.push(PathSegment { stage: None, start: key, end: t });
        }
        let s = &spans[order[p]];
        segments.push(PathSegment { stage: Some(s.stage), start: s.start, end: key });
        t = s.start;
        live = p;
        while live > 0 && spans[order[live - 1]].start >= t {
            live -= 1;
        }
    }
    segments.reverse();
    segments
}

/// Sort intervals and coalesce overlaps/adjacency.
fn merge(mut iv: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    iv.sort();
    let mut out: Vec<(SimTime, SimTime)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a merged interval set.
fn measure(iv: &[(SimTime, SimTime)]) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for (s, e) in iv {
        total += e.checked_sub(*s).unwrap_or(SimDuration::ZERO);
    }
    total
}

/// `a \ b` for merged, sorted interval sets.
fn subtract(a: &[(SimTime, SimTime)], b: &[(SimTime, SimTime)]) -> Vec<(SimTime, SimTime)> {
    let mut out = Vec::new();
    let mut bi = 0;
    for &(s, e) in a {
        let mut cur = s;
        while bi < b.len() && b[bi].1 <= cur {
            bi += 1;
        }
        let mut j = bi;
        while j < b.len() && b[j].0 < e {
            if cur < b[j].0 {
                out.push((cur, b[j].0));
            }
            cur = cur.max(b[j].1);
            j += 1;
        }
        if cur < e {
            out.push((cur, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SourceSpec, TransferSpec};
    use crate::trace::TraceMeta;
    use crate::units::DataVolume;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    fn task(stage: usize, id: u64, start: u64, end: u64) -> Vec<(SimTime, TraceEvent)> {
        vec![
            (
                t(start),
                TraceEvent::TaskStart {
                    stage: StageId(stage),
                    task: id,
                    lineage: id,
                    volume: DataVolume::gb(1),
                    units: 1,
                },
            ),
            (
                t(end),
                TraceEvent::TaskEnd {
                    stage: StageId(stage),
                    task: id,
                    lineage: id,
                    volume: DataVolume::gb(1),
                },
            ),
        ]
    }

    fn snap(events: Vec<(SimTime, TraceEvent)>) -> TraceSnapshot {
        let mut events = events;
        events.sort_by_key(|(at, _)| *at);
        TraceSnapshot {
            meta: TraceMeta { stages: vec!["alpha".into(), "beta".into()], resources: vec![] },
            events,
        }
    }

    #[test]
    fn serial_chain_attributes_each_leg_to_its_stage() {
        let mut evs = task(0, 1, 0, 10);
        evs.extend(task(1, 2, 10, 30));
        let report = critical_path(&snap(evs), t(30));
        assert_eq!(report.stages[0].attributed, d(10));
        assert_eq!(report.stages[1].attributed, d(20));
        assert_eq!(report.unattributed, SimDuration::ZERO);
        assert_eq!(report.dominant().unwrap().name, "beta");
        let total: SimDuration = report.segments.iter().map(|s| s.duration()).sum();
        assert_eq!(total, d(30));
    }

    #[test]
    fn overlapped_work_charges_the_last_to_finish() {
        // beta runs inside alpha's window; alpha finishes last, so the whole
        // chain is alpha's.
        let mut evs = task(0, 1, 0, 20);
        evs.extend(task(1, 2, 5, 15));
        let report = critical_path(&snap(evs), t(20));
        assert_eq!(report.stages[0].attributed, d(20));
        assert_eq!(report.stages[1].attributed, SimDuration::ZERO);
        assert_eq!(report.stages[1].busy, d(10));
    }

    #[test]
    fn gaps_become_unattributed_waiting() {
        let report = critical_path(&snap(task(0, 1, 5, 10)), t(12));
        assert_eq!(report.unattributed, d(7)); // [0,5) and (10,12]
        assert_eq!(report.stages[0].attributed, d(5));
        assert_eq!(report.segments.first().unwrap().stage, None);
        assert_eq!(report.segments.last().unwrap().stage, None);
    }

    #[test]
    fn blocked_is_queued_time_minus_own_activity() {
        let mut evs = vec![
            (
                t(0),
                TraceEvent::QueueDepthChange {
                    stage: StageId(0),
                    blocks: 1,
                    volume: DataVolume::gb(1),
                },
            ),
            (
                t(10),
                TraceEvent::QueueDepthChange {
                    stage: StageId(0),
                    blocks: 0,
                    volume: DataVolume::ZERO,
                },
            ),
        ];
        evs.extend(task(0, 1, 4, 10));
        let report = critical_path(&snap(evs), t(10));
        let b = &report.stages[0];
        assert_eq!(b.busy, d(6));
        assert_eq!(b.blocked, d(4)); // queued [0,10] minus running [4,10]
        assert_eq!(b.idle, SimDuration::ZERO);
    }

    #[test]
    fn breakdown_tiles_the_makespan() {
        let mut evs = task(0, 1, 2, 6);
        evs.extend(task(1, 2, 6, 9));
        let report = critical_path(&snap(evs), t(12));
        for b in &report.stages {
            assert_eq!(b.busy + b.blocked + b.idle, d(12), "stage {}", b.name);
        }
        let attributed: SimDuration = report.stages.iter().map(|b| b.attributed).sum();
        assert_eq!(attributed + report.unattributed, d(12));
    }

    #[test]
    fn top_bottlenecks_rank_by_attribution() {
        let mut evs = task(0, 1, 0, 3);
        evs.extend(task(1, 2, 3, 10));
        let report = critical_path(&snap(evs), t(10));
        let top = report.top_bottlenecks(2);
        assert_eq!(top[0].name, "beta");
        assert_eq!(top[1].name, "alpha");
        assert!(top[0].share > 0.69 && top[0].share <= 0.71);
        let rendered = report.to_string();
        assert!(rendered.contains("beta"));
        assert!(rendered.contains("critical path"));
    }

    #[test]
    fn empty_trace_is_all_waiting() {
        let report = critical_path(&snap(vec![]), t(5));
        assert_eq!(report.unattributed, d(5));
        assert!(report.stages.iter().all(|b| b.attributed.is_zero()));
        assert_eq!(report.dominant().unwrap().attributed, SimDuration::ZERO);
    }

    #[test]
    fn interval_subtract_handles_overlaps() {
        let a = vec![(t(0), t(10))];
        let b = vec![(t(2), t(4)), (t(6), t(7))];
        assert_eq!(subtract(&a, &b), vec![(t(0), t(2)), (t(4), t(6)), (t(7), t(10))]);
        assert_eq!(measure(&subtract(&a, &b)), d(7));
    }

    // --- degenerate graphs and traces: trivial flows must yield
    //     well-formed reports, not panics or mis-tiled chains. ---

    #[test]
    fn lone_source_graph_is_pure_waiting() {
        use crate::graph::{FlowGraph, StageKind};
        use crate::sim::{CpuPool, FlowSim};
        use crate::trace::TraceRecorder;

        let mut g = FlowGraph::new();
        g.add_stage(
            "pulse",
            StageKind::Source(SourceSpec {
                block: DataVolume::gib(1),
                interval: SimDuration::from_secs(10),
                blocks: 3,
            }),
        );
        let trace = TraceRecorder::new();
        let pools: Vec<CpuPool> = vec![];
        let report = FlowSim::new(g, pools).unwrap().with_observer(trace.clone()).run().unwrap();
        assert!(report.finished_at > SimTime::ZERO);

        let cp = critical_path(&trace.snapshot(), report.finished_at);
        // Emission alone opens no activity span: the entire makespan is the
        // flow waiting on source cadence.
        let makespan = SimDuration::from_micros(report.finished_at.as_micros());
        assert_eq!(cp.unattributed, makespan);
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].stage, None);
        assert_eq!(cp.stages.len(), 1);
        assert_eq!(cp.stages[0].attributed, SimDuration::ZERO);
        assert_eq!(cp.stages[0].idle, makespan);
        assert_eq!(cp.stages[0].share, 0.0);
    }

    #[test]
    fn zero_volume_flow_yields_zero_length_spans_not_a_hang() {
        use crate::graph::{FlowGraph, StageKind};
        use crate::sim::{CpuPool, FlowSim};
        use crate::trace::TraceRecorder;
        use crate::units::DataRate;

        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "empty-src",
            StageKind::Source(SourceSpec {
                block: DataVolume::ZERO,
                interval: SimDuration::from_secs(10),
                blocks: 3,
            }),
        );
        let x = g.add_stage(
            "wire",
            StageKind::Transfer(TransferSpec {
                rate: DataRate::mb_per_sec(100.0),
                latency: SimDuration::ZERO,
                channels: 1,
            }),
        );
        let a = g.add_stage("sink", StageKind::Archive);
        g.connect(s, x).unwrap();
        g.connect(x, a).unwrap();

        let trace = TraceRecorder::new();
        let pools: Vec<CpuPool> = vec![];
        let report = FlowSim::new(g, pools).unwrap().with_observer(trace.clone()).run().unwrap();

        // Zero-byte blocks over a zero-latency wire make every span
        // zero-length; the backward walk must still terminate and tile.
        let cp = critical_path(&trace.snapshot(), report.finished_at);
        let tiled: SimDuration = cp.segments.iter().map(|s| s.duration()).sum();
        assert_eq!(tiled, SimDuration::from_micros(report.finished_at.as_micros()));
        let attributed: SimDuration = cp.stages.iter().map(|b| b.attributed).sum();
        assert_eq!(attributed + cp.unattributed, tiled);
        for b in &cp.stages {
            assert_eq!(b.busy, SimDuration::ZERO, "zero-length spans are not occupancy");
        }
    }

    #[test]
    fn zero_makespan_report_is_empty_and_share_free() {
        let report = critical_path(&snap(vec![]), t(0));
        assert_eq!(report.makespan, SimTime::ZERO);
        assert!(report.segments.is_empty());
        assert_eq!(report.unattributed, SimDuration::ZERO);
        for b in &report.stages {
            assert_eq!(b.attributed, SimDuration::ZERO);
            assert_eq!(b.share, 0.0, "zero makespan must not divide by zero");
        }
        assert_eq!(report.dominant().unwrap().attributed, SimDuration::ZERO);
    }

    #[test]
    fn all_idle_makespan_is_one_unattributed_segment() {
        let report = critical_path(&snap(vec![]), t(50));
        assert_eq!(report.segments, vec![PathSegment { stage: None, start: t(0), end: t(50) }]);
        assert_eq!(report.unattributed, d(50));
        for b in &report.stages {
            assert_eq!(b.busy + b.blocked, SimDuration::ZERO);
            assert_eq!(b.idle, d(50));
        }
        assert!(report.to_string().contains("(waiting)"));
    }
}
