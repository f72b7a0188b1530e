//! Property-based tests for the core invariants: MD5 streaming, unit
//! arithmetic, calendar dates, provenance digests, and random flow graphs.

use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageKind};
use sciflow_core::md5::{md5, md5_strings, Md5};
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_testkit::check;

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
        assert_eq!(a.days_until(b), -b.days_until(a));
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
            StageKind::Source {
                block: DataVolume::gb(block_gb),
                interval: SimDuration::from_hours(1),
                blocks,
                start: SimTime::ZERO,
            },
        );
        let mut prev = src;
        for i in 0..stages {
            let p = graph.add_stage(
                format!("p{i}"),
                StageKind::Process {
                    rate_per_cpu: DataRate::mb_per_sec(50.0),
                    cpus_per_task: 1,
                    chunk: None,
                    output_ratio: 1.0,
                    pool: "pool".into(),
                    workspace_ratio: 0.0,
                    retain_input: false,
                    checkpoint: CheckpointPolicy::None,
                },
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
