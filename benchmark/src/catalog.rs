//! The single source of every workload and metric name: `benchmark describe`
//! prints [`benchmark_json`], which is the committed `BENCHMARK.json`, and
//! the harness prints exactly these metrics.

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sim-stress",
        why: "The per-event path (heap, due queue, slab, behavior hooks) is >99% of the time; durable, telemetry and stores do nothing here.",
    },
    Workload {
        name: "sim-durable",
        why: "A journaled run dropped mid-flight and resumed: frame encode, seal and write, then scan, decode and restore, in one number; sim-stress is its bypass.",
    },
    Workload {
        name: "sim-observed",
        why: "Telemetry writes: time series, SLO rules, a trace recorder and a metrics hub attached, so emission cost and peak memory move here and not in sim-stress.",
    },
    Workload {
        name: "trace-analyze",
        why: "Telemetry reads on a recorded trace: critical path, spans, JSONL and Chrome export; critical_path grows faster than linearly and no other workload sees it.",
    },
    Workload {
        name: "sim-sweep",
        why: "990 short runs (zoo flows clean and faulted, three case studies): the planner's traffic, where compile, construction and report building are ~25% of a run.",
    },
    Workload {
        name: "es-ingest",
        why: "Metastore row operations and EventStore local writes beside reads, with no wire, digest or journal: the bypass for every sync optimisation.",
    },
    Workload {
        name: "es-sync",
        why: "Anti-entropy between two durable replicas: total divergence, small deltas on a large store, checkpoint and recovery; the replication claims are made here.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "pass_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Where a per-layer metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// The traced passes of this workload.
    Workload(&'static str),
    /// A tight loop over the layer's public functions, traced run only.
    Probe,
    /// The harness itself, on the workload the run names.
    Harness,
}

pub struct PerLayer {
    /// `<layer>.<metric>`, the layer named by module.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// An exact count: identical between two runs of one seed, anywhere.
    pub exact: bool,
    pub home: Home,
}

const fn timed(name: &'static str, unit: &'static str, home: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", exact: false, home: Home::Workload(home) }
}

const fn count(name: &'static str, home: &'static str) -> PerLayer {
    PerLayer { name, unit: "count", better: "lower", exact: true, home: Home::Workload(home) }
}

const fn probe(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: false, home: Home::Probe }
}

const fn harness(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: false, home: Home::Harness }
}

const STRESS: &str = "sim-stress";
const DURABLE: &str = "sim-durable";
const OBSERVED: &str = "sim-observed";
const ANALYZE: &str = "trace-analyze";
const SWEEP: &str = "sim-sweep";
const INGEST: &str = "es-ingest";
const SYNC: &str = "es-sync";

pub const PER_LAYER: [PerLayer; 83] = [
    timed("core.genflow.generate_us", "us", SWEEP),
    timed("core.compiled.compile_us", "us", SWEEP),
    timed("core.sim.construct_us", "us", SWEEP),
    timed("core.sim.run_s", "s", STRESS),
    timed("core.sim.report_us", "us", SWEEP),
    timed("core.sim.ns_per_event", "ns", STRESS),
    timed("core.sim.clean_run_us", "us", SWEEP),
    timed("core.sim.faulted_run_us", "us", SWEEP),
    timed("core.sim.case_run_us", "us", SWEEP),
    count("core.sim.events_handled", STRESS),
    count("core.sim.finished_at_us", STRESS),
    probe("core.engine.hold_ns_per_event", "ns", "lower"),
    probe("core.engine.due_ns_per_event", "ns", "lower"),
    count("core.engine.peak_pending", OBSERVED),
    count("core.engine.slab_high_water", OBSERVED),
    probe("core.slab.churn_ns_per_op", "ns", "lower"),
    probe("core.resource.dispatch_ns_per_op", "ns", "lower"),
    timed("core.durable.journaled_run_s", "s", DURABLE),
    timed("core.durable.us_per_frame", "us", DURABLE),
    count("core.durable.frames", DURABLE),
    count("core.durable.journal_bytes", DURABLE),
    timed("core.durable.resume_from_s", "s", DURABLE),
    timed("core.durable.finish_s", "s", DURABLE),
    timed("core.durable.snapshot_to_s", "s", DURABLE),
    timed("core.trace.observed_run_s", "s", OBSERVED),
    timed("core.trace.ns_per_trace_event", "ns", OBSERVED),
    count("core.trace.events_recorded", OBSERVED),
    timed("core.trace.snapshot_s", "s", ANALYZE),
    timed("core.trace.spans_s", "s", ANALYZE),
    timed("core.trace.jsonl_s", "s", ANALYZE),
    count("core.trace.jsonl_bytes", ANALYZE),
    timed("core.trace.chrome_s", "s", ANALYZE),
    timed("core.critical.path_s", "s", ANALYZE),
    count("core.critical.segments", ANALYZE),
    timed("core.obs.render_prometheus_us", "us", OBSERVED),
    timed("core.obs.render_json_us", "us", OBSERVED),
    count("core.obs.series", OBSERVED),
    probe("core.obs.counter_add_ns", "ns", "lower"),
    count("core.metrics.ts_samples", OBSERVED),
    timed("core.fault.plan_generate_us", "us", SWEEP),
    count("core.fault.plan_events", SWEEP),
    probe("core.fnv.mb_per_s", "MB/s", "higher"),
    probe("core.md5.mb_per_s", "MB/s", "higher"),
    probe("metastore.table.insert_ns_per_row", "ns", "lower"),
    probe("metastore.table.get_by_key_ns", "ns", "lower"),
    probe("metastore.query.select_indexed_us", "us", "lower"),
    probe("metastore.query.select_scan_us", "us", "lower"),
    probe("metastore.db.execute_ns_per_op", "ns", "lower"),
    probe("metastore.persist.seal_mb_per_s", "MB/s", "higher"),
    probe("metastore.persist.unseal_mb_per_s", "MB/s", "higher"),
    timed("eventstore.store.resolve_us", "us", INGEST),
    timed("eventstore.store.files_for_us", "us", INGEST),
    timed("eventstore.store.file_lookup_us", "us", INGEST),
    timed("eventstore.store.to_bytes_s", "s", INGEST),
    timed("eventstore.store.from_bytes_s", "s", INGEST),
    count("eventstore.store.bytes", INGEST),
    timed("eventstore.merge.merge_into_us_per_file", "us", INGEST),
    timed("eventstore.replica.register_us", "us", INGEST),
    timed("eventstore.replica.revise_us", "us", INGEST),
    timed("eventstore.replica.quarantine_us", "us", INGEST),
    timed("eventstore.replica.declare_snapshot_us", "us", INGEST),
    timed("eventstore.replica.summary_ms", "ms", SYNC),
    timed("eventstore.replica.units_in_range_us", "us", SYNC),
    timed("eventstore.replica.sealed_content_ms", "ms", SYNC),
    timed("eventstore.replica.full_sync_s", "s", SYNC),
    timed("eventstore.replica.us_per_unit", "us", SYNC),
    timed("eventstore.replica.confirm_ms", "ms", SYNC),
    timed("eventstore.replica.delta_sync_ms", "ms", SYNC),
    count("eventstore.replica.delta_units_sent", SYNC),
    PerLayer {
        name: "eventstore.replica.delta_useful_ratio",
        unit: "ratio",
        better: "higher",
        exact: true,
        home: Home::Workload(SYNC),
    },
    count("eventstore.replica.frames_sent", SYNC),
    count("eventstore.replica.bytes_sent", SYNC),
    count("eventstore.replica.ranges_differing", SYNC),
    timed("eventstore.replica.checkpoint_ms", "ms", SYNC),
    timed("eventstore.replica.recover_ms", "ms", SYNC),
    count("eventstore.replica.journal_bytes", SYNC),
    harness("harness.samples", "count", "higher"),
    harness("harness.pass_q1_s", "s", "lower"),
    harness("harness.pass_q3_s", "s", "lower"),
    harness("harness.pass_tail_s", "s", "lower"),
    harness("harness.tail_pct", "%", "higher"),
    timed("harness.prep_s", "s", SYNC),
    harness("harness.trace_overhead", "ratio", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads =
        WORKLOADS.iter().map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit_ok(unit), "bad unit `{unit}`");
        }
        for better in END_TO_END.iter().map(|m| m.better).chain(PER_LAYER.iter().map(|m| m.better))
        {
            assert!(matches!(better, "lower" | "higher"));
        }
    }

    #[test]
    fn whys_are_one_line_and_bounds_are_shares() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn every_home_is_a_workload() {
        for m in &PER_LAYER {
            if let Home::Workload(w) = m.home {
                assert!(workload(w).is_some(), "{} is homed on unknown `{w}`", m.name);
            }
        }
    }
}
