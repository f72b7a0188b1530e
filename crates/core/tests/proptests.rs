//! Property-based tests for the core invariants: MD5 streaming, unit
//! arithmetic, calendar dates, provenance digests, random flow graphs, and
//! the trace exports against a naive renderer.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageId, StageKind};
use sciflow_core::md5::{md5, md5_strings, Md5};
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::spec::{ProcessSpec, SourceSpec};
use sciflow_core::trace::{FaultKind, FaultScope, TraceEvent, TraceMeta, TraceSnapshot};
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_testkit::{check, Gen};

/// Incremental hashing over arbitrary chunk splits equals one-shot.
#[test]
fn md5_incremental_equals_one_shot() {
    check("md5_incremental_equals_one_shot", 64, |g| {
        let data = g.vec(0..2048, |g| g.any::<u8>());
        let splits = g.vec(0..32, |g| g.range(1usize..64));
        let whole = md5(&data);
        let mut ctx = Md5::new();
        let mut pos = 0usize;
        for s in splits {
            if pos >= data.len() {
                break;
            }
            let end = (pos + s).min(data.len());
            ctx.update(&data[pos..end]);
            pos = end;
        }
        ctx.update(&data[pos..]);
        assert_eq!(ctx.finish(), whole);
    });
}

/// The string framing is injective for distinct string lists (no
/// concatenation ambiguity).
#[test]
fn md5_strings_framing_is_unambiguous() {
    check("md5_strings_framing_is_unambiguous", 64, |g| {
        let a = g.vec(1..5, |g| g.string("a-z", 0..=8));
        let b = g.vec(1..5, |g| g.string("a-z", 0..=8));
        if a != b {
            assert_ne!(md5_strings(&a), md5_strings(&b));
        } else {
            assert_eq!(md5_strings(&a), md5_strings(&b));
        }
    });
}

/// Volume arithmetic respects the underlying integers.
#[test]
fn volume_arithmetic_consistent() {
    check("volume_arithmetic_consistent", 64, |g| {
        let (a, b) = (g.range(0u64..1u64 << 40), g.range(0u64..1u64 << 40));
        let va = DataVolume::from_bytes(a);
        let vb = DataVolume::from_bytes(b);
        assert_eq!((va + vb).bytes(), a + b);
        assert_eq!(va.saturating_sub(vb).bytes(), a.saturating_sub(b));
        assert_eq!(va.min(vb).bytes(), a.min(b));
        assert_eq!(va.max(vb).bytes(), a.max(b));
        // scale by 1.0 is identity.
        assert_eq!(va.scale(1.0), va);
    });
}

/// volume / rate round-trips within a microsecond's worth of bytes.
#[test]
fn volume_rate_roundtrip() {
    check("volume_rate_roundtrip", 64, |g| {
        let (bytes, mbps) = (g.range(1u64..1u64 << 42), g.range(1u32..10_000));
        let v = DataVolume::from_bytes(bytes);
        let r = DataRate::mb_per_sec(mbps as f64);
        let t = v.time_at(r).expect("positive rate");
        let back = r.over(t);
        let tolerance = (r.bytes_per_sec() / 1e6).ceil() as u64 + 1;
        assert!(
            back.bytes().abs_diff(bytes) <= tolerance,
            "{} vs {} (tolerance {})",
            back.bytes(),
            bytes,
            tolerance
        );
    });
}

/// Valid dates survive the compact-format round trip and order like
/// their day numbers.
#[test]
fn dates_roundtrip_and_order() {
    check("dates_roundtrip_and_order", 64, |g| {
        let (y1, m1, d1) = (g.range(1996u16..2040), g.range(1u8..13), g.range(1u8..29));
        let (y2, m2, d2) = (g.range(1996u16..2040), g.range(1u8..13), g.range(1u8..29));
        let a = CalDate::new(y1, m1, d1).expect("day < 29 is always valid");
        let b = CalDate::new(y2, m2, d2).expect("day < 29 is always valid");
        let compact = format!("{:04}{:02}{:02}", y1, m1, d1);
        assert_eq!(CalDate::parse_compact(&compact), Some(a));
        assert_eq!(a.cmp(&b), a.day_number().cmp(&b.day_number()));
    });
}

/// Derived provenance records never collide with their parents, and the
/// digest is stable under cloning.
#[test]
fn provenance_digests_separate_lineages() {
    check("provenance_digests_separate_lineages", 64, |g| {
        let module = g.string("A-Za-z", 1..=12);
        let param = g.string("a-z", 1..=8);
        let value = g.string("0-9", 1..=6);
        let v = VersionId::new("Step", "R1", CalDate::new(2006, 7, 4).expect("valid"), "here");
        let mut parent = ProvenanceRecord::new();
        parent.push(ProvenanceStep::new(module.clone(), v.clone()));
        let child = parent.derive(ProvenanceStep::new(module, v).with_param(param, value));
        assert_ne!(parent.digest(), child.digest());
        assert_eq!(child.digest(), child.clone().digest());
        assert!(parent.explain_discrepancy(&child).is_some());
        assert!(parent.explain_discrepancy(&parent.clone()).is_none());
    });
}

/// Random linear pipelines conserve volume through unit-ratio stages and
/// always terminate.
#[test]
fn random_linear_flows_conserve_volume() {
    check("random_linear_flows_conserve_volume", 64, |g| {
        let (blocks, block_gb) = (g.range(1u64..6), g.range(1u64..50));
        let (stages, cpus) = (g.range(1usize..5), g.range(1u32..9));
        let mut graph = FlowGraph::new();
        let src = graph.add_stage(
            "src",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(block_gb),
                interval: SimDuration::from_hours(1),
                blocks,
            }),
        );
        let mut prev = src;
        for i in 0..stages {
            let p = graph.add_stage(
                format!("p{i}"),
                StageKind::Process(ProcessSpec {
                    rate_per_cpu: DataRate::mb_per_sec(50.0),
                    cpus_per_task: 1,
                    chunk: None,
                    output_ratio: 1.0,
                    pool: "pool".into(),
                    workspace_ratio: 0.0,
                    retain_input: false,
                    checkpoint: CheckpointPolicy::None,
                }),
            );
            graph.connect(prev, p).expect("stages exist");
            prev = p;
        }
        let sink = graph.add_stage("sink", StageKind::Archive);
        graph.connect(prev, sink).expect("stages exist");
        let report = FlowSim::new(graph, vec![CpuPool::new("pool", cpus)])
            .expect("valid flow")
            .run()
            .expect("terminates");
        let expected = DataVolume::gb(block_gb) * blocks;
        assert_eq!(report.stage("sink").expect("exists").volume_in, expected);
        assert_eq!(report.retained_storage, expected);
    });
}

/// Topological order is a valid linearization for random DAGs built by
/// only adding forward edges.
#[test]
fn topo_order_respects_edges() {
    check("topo_order_respects_edges", 64, |g| {
        let n = g.range(2usize..12);
        let edges = g.vec(0..24, |g| (g.range(0usize..12), g.range(0usize..12)));
        let mut graph = FlowGraph::new();
        let ids: Vec<_> =
            (0..n).map(|i| graph.add_stage(format!("s{i}"), StageKind::Archive)).collect();
        let mut added = Vec::new();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a < b {
                graph.connect(ids[a], ids[b]).expect("indices valid");
                added.push((a, b));
            }
        }
        let order = graph.topo_order().expect("forward edges cannot form a cycle");
        let pos: Vec<usize> = {
            let mut p = vec![0; n];
            for (rank, id) in order.iter().enumerate() {
                p[id.index()] = rank;
            }
            p
        };
        for (a, b) in added {
            assert!(pos[a] < pos[b], "edge {a}->{b} violated");
        }
    });
}

/// Name characters: plain letters, the two JSON escapes, every control
/// character, DEL, and two-, three- and four-byte UTF-8.
const NAME_CHARS: &str = "a-c \"\\\u{0}-\u{1f}\u{7f}é€𝄞";

/// A value of a digit count drawn from 1 to `max_digits`, capped at
/// `max`: the smallest or the largest of that count (0, 9, 10, 99, …,
/// 10^k − 1, 10^k, …, `max`) or one between.
fn int_of_any_width(g: &mut Gen, max_digits: u32, max: u64) -> u64 {
    let k = g.range(1..=max_digits);
    let lo = if k == 1 { 0 } else { 10u64.pow(k - 1) };
    let hi = 10u64.checked_pow(k).map_or(max, |p| (p - 1).min(max));
    match g.range(0u8..4) {
        0 => lo,
        1 => hi,
        _ => g.range(lo..=hi),
    }
}

fn any_u64(g: &mut Gen) -> u64 {
    int_of_any_width(g, 20, u64::MAX)
}

fn any_u32(g: &mut Gen) -> u32 {
    int_of_any_width(g, 10, u32::MAX.into()) as u32
}

const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Stall,
    FaultKind::Link,
    FaultKind::SilentCorrupt,
    FaultKind::Crash,
    FaultKind::Repair,
];

/// One or two events at random times: any variant alone, or a task start
/// with the end or crash kill that closes it into a span. Stage ids and
/// resource ids run past the name tables, which the exports print as `?`.
fn trace_events(g: &mut Gen, stages: &[StageId]) -> Vec<(SimTime, TraceEvent)> {
    let stage = stages[g.range(0..stages.len())];
    let t = any_u64(g);
    let (lineage, volume) = (any_u64(g), DataVolume::from_bytes(any_u64(g)));
    let us = SimDuration::from_micros;
    let ev = match g.range(0..12) {
        0 => TraceEvent::TaskStart { stage, task: any_u64(g), lineage, volume, units: any_u32(g) },
        1 => TraceEvent::TaskEnd { stage, task: any_u64(g), lineage, volume },
        2 => TraceEvent::TransferAttempt {
            stage,
            lineage,
            volume,
            attempt: any_u32(g),
            // A span ends at its start plus its duration, which must fit.
            duration: us(any_u64(g).min(u64::MAX - t)),
        },
        3 => TraceEvent::TransferRetry {
            stage,
            lineage,
            volume,
            attempt: any_u32(g),
            backoff: us(any_u64(g)),
        },
        4 => TraceEvent::TransferAbandon { stage, lineage, volume },
        5 => TraceEvent::QueueDepthChange { stage, blocks: any_u64(g) as usize, volume },
        6 => TraceEvent::FaultInjected {
            scope: match g.range(0u8..3) {
                0 => FaultScope::Stage(stage),
                1 => FaultScope::Resource(g.range(0..5)),
                _ => FaultScope::None,
            },
            kind: FAULT_KINDS[g.range(0..FAULT_KINDS.len())],
            count: any_u64(g),
        },
        7 => TraceEvent::CheckpointWritten {
            stage,
            task: any_u64(g),
            count: any_u32(g),
            cost: us(any_u64(g)),
        },
        8 => TraceEvent::VerifyCheck {
            stage,
            lineage,
            volume,
            cost: us(any_u64(g)),
            tainted: g.any(),
        },
        9 => TraceEvent::BlockQuarantined { stage, lineage, volume, taint: any_u32(g) },
        10 => TraceEvent::CrashKill { stage, task: any_u64(g), lineage, lost: us(any_u64(g)) },
        _ => {
            let task = any_u64(g);
            let start = TraceEvent::TaskStart { stage, task, lineage, volume, units: any_u32(g) };
            let end = if g.any() {
                TraceEvent::TaskEnd { stage, task, lineage, volume }
            } else {
                TraceEvent::CrashKill { stage, task, lineage, lost: us(any_u64(g)) }
            };
            return vec![(SimTime::from_micros(t), start), (SimTime::from_micros(any_u64(g)), end)];
        }
    };
    vec![(SimTime::from_micros(t), ev)]
}

/// JSON string escaping, written out the long way.
fn naive_esc(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            '\n' => out += "\\n",
            '\r' => out += "\\r",
            '\t' => out += "\\t",
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)).unwrap(),
            c => out.push(c),
        }
    }
    out
}

fn naive_name(names: &[String], i: usize) -> String {
    names.get(i).map_or("?".to_string(), |n| naive_esc(n))
}

/// The JSONL export as `writeln!` with `Display` arguments renders it.
fn naive_jsonl(trace: &TraceSnapshot) -> String {
    let stage = |s: StageId| naive_name(&trace.meta.stages, s.index());
    let mut out = String::new();
    for (at, ev) in &trace.events {
        let t = at.as_micros();
        match ev {
            TraceEvent::TaskStart { stage: s, task, lineage, volume, units } => writeln!(
                out,
                r#"{{"t":{t},"ev":"task_start","stage":"{}","task":{task},"lineage":{lineage},"volume":{},"units":{units}}}"#,
                stage(*s),
                volume.bytes()
            ),
            TraceEvent::TaskEnd { stage: s, task, lineage, volume } => writeln!(
                out,
                r#"{{"t":{t},"ev":"task_end","stage":"{}","task":{task},"lineage":{lineage},"volume":{}}}"#,
                stage(*s),
                volume.bytes()
            ),
            TraceEvent::TransferAttempt { stage: s, lineage, volume, attempt, duration } => writeln!(
                out,
                r#"{{"t":{t},"ev":"transfer_attempt","stage":"{}","lineage":{lineage},"volume":{},"attempt":{attempt},"duration":{}}}"#,
                stage(*s),
                volume.bytes(),
                duration.as_micros()
            ),
            TraceEvent::TransferRetry { stage: s, lineage, volume, attempt, backoff } => writeln!(
                out,
                r#"{{"t":{t},"ev":"transfer_retry","stage":"{}","lineage":{lineage},"volume":{},"attempt":{attempt},"backoff":{}}}"#,
                stage(*s),
                volume.bytes(),
                backoff.as_micros()
            ),
            TraceEvent::TransferAbandon { stage: s, lineage, volume } => writeln!(
                out,
                r#"{{"t":{t},"ev":"transfer_abandon","stage":"{}","lineage":{lineage},"volume":{}}}"#,
                stage(*s),
                volume.bytes()
            ),
            TraceEvent::QueueDepthChange { stage: s, blocks, volume } => writeln!(
                out,
                r#"{{"t":{t},"ev":"queue_depth","stage":"{}","blocks":{blocks},"volume":{}}}"#,
                stage(*s),
                volume.bytes()
            ),
            TraceEvent::FaultInjected { scope, kind, count } => {
                let scope = match scope {
                    FaultScope::Stage(s) => format!(r#""stage":"{}""#, stage(*s)),
                    FaultScope::Resource(r) => {
                        format!(r#""resource":"{}""#, naive_name(&trace.meta.resources, *r))
                    }
                    FaultScope::None => r#""stage":null"#.to_string(),
                };
                writeln!(
                    out,
                    r#"{{"t":{t},"ev":"fault",{scope},"kind":"{}","count":{count}}}"#,
                    kind.label()
                )
            }
            TraceEvent::CheckpointWritten { stage: s, task, count, cost } => writeln!(
                out,
                r#"{{"t":{t},"ev":"checkpoint","stage":"{}","task":{task},"count":{count},"cost":{}}}"#,
                stage(*s),
                cost.as_micros()
            ),
            TraceEvent::VerifyCheck { stage: s, lineage, volume, cost, tainted } => writeln!(
                out,
                r#"{{"t":{t},"ev":"verify","stage":"{}","lineage":{lineage},"volume":{},"cost":{},"tainted":{tainted}}}"#,
                stage(*s),
                volume.bytes(),
                cost.as_micros()
            ),
            TraceEvent::BlockQuarantined { stage: s, lineage, volume, taint } => writeln!(
                out,
                r#"{{"t":{t},"ev":"quarantine","stage":"{}","lineage":{lineage},"volume":{},"taint":{taint}}}"#,
                stage(*s),
                volume.bytes()
            ),
            TraceEvent::CrashKill { stage: s, task, lineage, lost } => writeln!(
                out,
                r#"{{"t":{t},"ev":"crash_kill","stage":"{}","task":{task},"lineage":{lineage},"lost":{}}}"#,
                stage(*s),
                lost.as_micros()
            ),
        }
        .unwrap();
    }
    out
}

/// The Chrome export as `write!` renders it. The spans are the library's
/// (`spans()` is checked on its own); every byte written for them is
/// rendered here.
fn naive_chrome(trace: &TraceSnapshot) -> String {
    let meta = &trace.meta;
    let mut out = String::from(
        r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":"sciflow"}}"#,
    );
    let tracks = meta.stages.iter().map(|n| format!("stage: {}", naive_esc(n)));
    let tracks = tracks.chain(meta.resources.iter().map(|n| format!("resource: {}", naive_esc(n))));
    for (tid, name) in tracks.enumerate() {
        write!(
            out,
            r#",{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{name}"}}}}"#
        )
        .unwrap();
    }
    for span in trace.spans() {
        let killed = if span.killed { " (killed)" } else { "" };
        write!(
            out,
            r#",{{"name":"{kind} {task}{killed}","cat":"{kind}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"lineage":{}}}}}"#,
            span.start.as_micros(),
            span.end.as_micros().saturating_sub(span.start.as_micros()),
            span.stage.index(),
            span.lineage,
            kind = span.kind,
            task = span.task,
        )
        .unwrap();
    }
    let instant = |name: String, cat: &str, ts: u64, tid: usize| {
        format!(
            r#",{{"name":"{name}","cat":"{cat}","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid}}}"#
        )
    };
    for (at, ev) in &trace.events {
        let ts = at.as_micros();
        match ev {
            TraceEvent::QueueDepthChange { stage, blocks, .. } => write!(
                out,
                r#",{{"name":"queue: {}","ph":"C","ts":{ts},"pid":1,"args":{{"blocks":{blocks}}}}}"#,
                naive_name(&meta.stages, stage.index())
            )
            .unwrap(),
            TraceEvent::FaultInjected { scope, kind, count } => {
                let tid = match scope {
                    FaultScope::Stage(s) => s.index(),
                    FaultScope::Resource(r) => meta.stages.len() + r,
                    FaultScope::None => 0,
                };
                out += &instant(format!("fault: {} x{count}", kind.label()), "fault", ts, tid);
            }
            TraceEvent::BlockQuarantined { stage, lineage, .. } => {
                let name = format!("quarantine lineage {lineage}");
                out += &instant(name, "integrity", ts, stage.index());
            }
            TraceEvent::CrashKill { stage, task, .. } => {
                out += &instant(format!("crash kill task {task}"), "fault", ts, stage.index());
            }
            _ => {}
        }
    }
    out + "]}"
}

/// Both exports equal the naive renderers above on random traces: every
/// variant, fault kind and scope arm, integers of every digit count from
/// 1 to 20 (the edges of each among them), and names with quotes,
/// backslashes, control characters and multi-byte UTF-8.
#[test]
fn exports_match_a_naive_renderer() {
    let mut graph = FlowGraph::new();
    let stages: Vec<StageId> =
        (0..8).map(|i| graph.add_stage(format!("s{i}"), StageKind::Archive)).collect();
    let time_widths = RefCell::new(BTreeSet::new());
    check("exports_match_a_naive_renderer", 64, |g| {
        let meta = TraceMeta {
            stages: g.vec(0..=6, |g| g.string(NAME_CHARS, 0..8)),
            resources: g.vec(0..=3, |g| g.string(NAME_CHARS, 0..8)),
        };
        let events = g.vec(0..24, |g| trace_events(g, &stages)).concat();
        let mut widths = time_widths.borrow_mut();
        widths.extend(events.iter().map(|(at, _)| at.as_micros().to_string().len()));
        let trace = TraceSnapshot { meta, events };
        assert_eq!(trace.jsonl(), naive_jsonl(&trace));
        assert_eq!(trace.chrome_trace(), naive_chrome(&trace));
    });
    assert_eq!(time_widths.into_inner(), (1..=20).collect(), "digit counts the times reached");
}
