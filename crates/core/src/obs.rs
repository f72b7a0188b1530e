//! # Deterministic observability: counters, gauges and log-linear histograms
//!
//! The paper's capacity arguments ("150 cpus keeps up", "~78% of Arecibo's
//! bytes travel by truck") are claims about *observed* steady-state
//! behavior. This module gives every layer of the reproduction a place to
//! record those observations without perturbing the run:
//!
//! * all metric state is integer-valued — counters and gauges are `u64`,
//!   histograms hold `u64` bucket counts over **fixed log-linear bucket
//!   boundaries** (no floats, no dynamic rebucketing), so two same-seed
//!   replays produce byte-identical renders;
//! * the registry is keyed by a `BTreeMap`, so iteration order — and with
//!   it the JSON and Prometheus text exposition — is a pure function of the
//!   recorded names;
//! * recording goes through a cloneable [`MetricsHub`] handle
//!   (`Rc<RefCell<…>>`, the same shape as `trace::TraceRecorder`), so the
//!   disabled path in instrumented code costs exactly one `Option` check
//!   and recording never feeds back into simulation state.
//!
//! ## Bucket scheme
//!
//! Histogram boundaries are linear from 1 to 8, then every power-of-two
//! octave is split into four sub-buckets (10, 12, 14, 16, 20, 24, 28, 32,
//! 40, …) up to 2⁶², with a final +Inf overflow bucket. Relative bucket
//! error is therefore bounded at ~12.5% everywhere, the table is shared by
//! every histogram, and a bucket index is a binary search — no logs, no
//! floats.
//!
//! ## Labels
//!
//! Labels are embedded in the metric name itself (`repl_bytes_sent{link="0"}`).
//! The renderer splits at the first `{` to group `# TYPE` lines and to merge
//! the `le` label into histogram bucket lines. This keeps the registry a
//! flat map and the exposition trivially deterministic.
//!
//! ## SLO rules and alerts
//!
//! [`SloRule`] is a declarative health rule evaluated *inside* the
//! deterministic simulation (by `sim::FlowSim` or the replica
//! `SyncFabric`), and [`Alert`] is the typed record of one violation
//! window. Because evaluation happens on simulated time against integer
//! state, the alert stream is as replayable as the flow itself.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::OnceLock;

use crate::trace::esc;
use crate::units::{DataVolume, SimTime};

// ---------------------------------------------------------------------------
// Bucket table

/// Shared log-linear histogram bucket upper bounds (exclusive of +Inf).
pub fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b: Vec<u64> = (1..=8).collect();
        let mut lo: u64 = 8;
        while lo < (1 << 62) {
            let step = lo / 4;
            for i in 1..=4 {
                b.push(lo + step * i);
            }
            lo *= 2;
        }
        b
    })
}

/// Index into [`bucket_bounds`] (or one past the end for +Inf) for `v`.
fn bucket_index(v: u64) -> usize {
    bucket_bounds().partition_point(|&b| b < v)
}

// ---------------------------------------------------------------------------
// Metrics

/// One histogram: per-bucket counts over the shared bounds, plus the exact
/// integer sum and total count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `bucket_bounds().len() + 1` slots; the last is the +Inf overflow.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram { counts: vec![0; bucket_bounds().len() + 1], count: 0, sum: 0 }
    }

    fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Metric {
    Counter(u64),
    Gauge(u64),
    Hist(Histogram),
}

/// A flat, deterministically ordered metric store.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Fetch-or-insert without allocating on the hot (existing-metric) path.
    fn metric_mut(&mut self, name: &str, make: fn() -> Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), make());
        }
        self.metrics.get_mut(name).expect("metric just ensured")
    }

    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.metric_mut(name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    pub fn gauge_set(&mut self, name: &str, v: u64) {
        match self.metric_mut(name, || Metric::Gauge(0)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    pub fn observe(&mut self, name: &str, v: u64) {
        match self.metric_mut(name, || Metric::Hist(Histogram::new())) {
            Metric::Hist(h) => h.observe(v),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Current value of a counter or gauge, or a histogram's total count.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).map(|m| match m {
            Metric::Counter(c) => *c,
            Metric::Gauge(g) => *g,
            Metric::Hist(h) => h.count,
        })
    }

    /// A histogram's exact integer sum of observations.
    pub fn histogram_sum(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Hist(h)) => Some(h.sum),
            _ => None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Stable-key JSON render: three sorted objects (`counters`, `gauges`,
    /// `histograms`), histogram buckets as sparse `[upper_bound, count]`
    /// pairs (per-bucket counts, not cumulative; `0` bound means +Inf).
    pub fn render_json(&self) -> String {
        let mut w = String::new();
        w.push_str("{\n");
        for (section, want) in [("counters", 0usize), ("gauges", 1usize), ("histograms", 2usize)] {
            let _ = write!(w, "  \"{section}\": {{");
            let mut first = true;
            for (name, m) in &self.metrics {
                let tag = match m {
                    Metric::Counter(_) => 0,
                    Metric::Gauge(_) => 1,
                    Metric::Hist(_) => 2,
                };
                if tag != want {
                    continue;
                }
                if !first {
                    w.push(',');
                }
                first = false;
                w.push_str("\n    ");
                match m {
                    Metric::Counter(v) | Metric::Gauge(v) => {
                        let _ = write!(w, "\"{}\": {v}", esc(name));
                    }
                    Metric::Hist(h) => {
                        let _ = write!(
                            w,
                            "\"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                            esc(name),
                            h.count,
                            h.sum
                        );
                        let bounds = bucket_bounds();
                        let mut first_b = true;
                        for (i, &c) in h.counts.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            if !first_b {
                                w.push_str(", ");
                            }
                            first_b = false;
                            let le = bounds.get(i).copied().unwrap_or(0);
                            let _ = write!(w, "[{le}, {c}]");
                        }
                        w.push_str("]}");
                    }
                }
            }
            if !first {
                w.push_str("\n  ");
            }
            w.push('}');
            if section != "histograms" {
                w.push(',');
            }
            w.push('\n');
        }
        w.push_str("}\n");
        w
    }

    /// Prometheus text exposition. `# TYPE` lines are emitted once per base
    /// name (the part before any `{`); histogram buckets are emitted sparse
    /// (nonzero buckets only, cumulative values) plus the mandatory `+Inf`,
    /// `_sum` and `_count` series. Deterministic by construction: the render
    /// is a pure function of the registry contents.
    pub fn render_prometheus(&self) -> String {
        let mut w = String::new();
        let mut last_base = String::new();
        for (name, m) in &self.metrics {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let kind = match m {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Hist(_) => "histogram",
                };
                let _ = writeln!(w, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
            match m {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    let _ = writeln!(w, "{name} {v}");
                }
                Metric::Hist(h) => {
                    let bounds = bucket_bounds();
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        if c == 0 {
                            continue;
                        }
                        if let Some(&le) = bounds.get(i) {
                            let _ = writeln!(
                                w,
                                "{base}_bucket{} {cum}",
                                merge_le(labels, &le.to_string())
                            );
                        }
                    }
                    let _ = writeln!(w, "{base}_bucket{} {}", merge_le(labels, "+Inf"), h.count);
                    let _ = writeln!(w, "{base}_sum{labels} {}", h.sum);
                    let _ = writeln!(w, "{base}_count{labels} {}", h.count);
                }
            }
        }
        w
    }
}

/// Split `repl_bytes{link="0"}` into (`repl_bytes`, `{link="0"}`).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Merge an `le` label into an existing (possibly empty) label set.
fn merge_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

// ---------------------------------------------------------------------------
// Hub

/// Cloneable recording handle over a shared [`MetricsRegistry`].
///
/// Mirrors `trace::TraceRecorder`: the simulator, the durable layer and the
/// replica fabric each hold (an `Option` of) a clone, and the caller keeps
/// one to render after the run. Recording never mutates simulation state,
/// so attaching a hub is observationally free — the zero-perturbation test
/// in `tests/obs_metrics.rs` pins that against every committed golden.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Rc<RefCell<MetricsRegistry>>,
}

impl MetricsHub {
    pub fn new() -> Self {
        MetricsHub::default()
    }

    pub fn counter_add(&self, name: &str, v: u64) {
        self.inner.borrow_mut().counter_add(name, v);
    }

    pub fn gauge_set(&self, name: &str, v: u64) {
        self.inner.borrow_mut().gauge_set(name, v);
    }

    pub fn observe(&self, name: &str, v: u64) {
        self.inner.borrow_mut().observe(name, v);
    }

    pub fn value(&self, name: &str) -> Option<u64> {
        self.inner.borrow().value(name)
    }

    pub fn histogram_sum(&self, name: &str) -> Option<u64> {
        self.inner.borrow().histogram_sum(name)
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    pub fn render_json(&self) -> String {
        self.inner.borrow().render_json()
    }

    pub fn render_prometheus(&self) -> String {
        self.inner.borrow().render_prometheus()
    }
}

// ---------------------------------------------------------------------------
// SLO rules and alerts

/// What a declarative health rule watches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloKind {
    /// The named stage's queued-but-unprocessed volume exceeds `max_volume`.
    QueueBacklog { stage: String, max_volume: DataVolume },
    /// More than `max` corrupt items have escaped past every verifier.
    EscapedTaint { max: u64 },
    /// Fleet replication lag — the summed version-vector delta across
    /// replicas — exceeds `max_weight`.
    ReplicationLag { max_weight: u64 },
}

/// A named, declarative SLO rule, attached via
/// [`crate::graph::FlowGraph::set_slos`] or `SyncFabric::with_slo` and
/// evaluated deterministically in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    pub name: String,
    pub kind: SloKind,
}

impl SloRule {
    pub fn queue_backlog(name: &str, stage: &str, max_volume: DataVolume) -> Self {
        SloRule {
            name: name.to_string(),
            kind: SloKind::QueueBacklog { stage: stage.to_string(), max_volume },
        }
    }

    pub fn escaped_taint(name: &str, max: u64) -> Self {
        SloRule { name: name.to_string(), kind: SloKind::EscapedTaint { max } }
    }

    pub fn replication_lag(name: &str, max_weight: u64) -> Self {
        SloRule { name: name.to_string(), kind: SloKind::ReplicationLag { max_weight } }
    }
}

crate::wire_struct! {
    /// One violation window of one [`SloRule`]: fired when the watched value
    /// first crossed its ceiling, resolved when it came back under (or left
    /// unresolved at end of run), with the peak value seen while firing.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Alert {
        pub rule: String,
        pub fired_at: SimTime,
        pub resolved_at: Option<SimTime>,
        pub peak: u64,
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ALERT {}: fired {}, peak {}", self.rule, self.fired_at, self.peak)?;
        match self.resolved_at {
            Some(t) => write!(f, ", resolved {t}"),
            None => write!(f, ", unresolved at end of run"),
        }
    }
}

crate::wire_struct! {
    /// Shared fire/resolve automaton for rule evaluators in `sim` and the
    /// replica fabric: feed it the watched value each evaluation instant and it
    /// yields a completed [`Alert`] per violation window.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SloState {
        pub active: bool,
        pub fired_at: SimTime,
        pub peak: u64,
    }
}

impl Default for SloState {
    fn default() -> Self {
        SloState { active: false, fired_at: SimTime::ZERO, peak: 0 }
    }
}

impl SloState {
    /// Observe `value` against `ceiling` at instant `now`. Returns a
    /// completed alert when a violation window closes.
    pub fn observe(&mut self, rule: &str, now: SimTime, value: u64, ceiling: u64) -> Option<Alert> {
        if value > ceiling {
            if !self.active {
                self.active = true;
                self.fired_at = now;
                self.peak = value;
            } else {
                self.peak = self.peak.max(value);
            }
            None
        } else if self.active {
            self.active = false;
            Some(Alert {
                rule: rule.to_string(),
                fired_at: self.fired_at,
                resolved_at: Some(now),
                peak: self.peak,
            })
        } else {
            None
        }
    }

    /// Close out a still-active window at end of run (unresolved alert).
    pub fn finish(&self, rule: &str) -> Option<Alert> {
        self.active.then(|| Alert {
            rule: rule.to_string(),
            fired_at: self.fired_at,
            resolved_at: None,
            peak: self.peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_testkit::determinism::validate_exposition;

    #[test]
    fn bucket_bounds_are_strictly_increasing_and_log_linear() {
        let b = bucket_bounds();
        assert_eq!(&b[..12], &[1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16]);
        for w in b.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {:?}", w);
        }
        // Relative error bound: each bucket is at most 25% wide above 8.
        for w in b.windows(2) {
            if w[0] >= 8 {
                assert!(w[1] - w[0] <= w[0] / 4 + 1, "bucket too wide: {:?}", w);
            }
        }
        assert!(*b.last().unwrap() >= (1 << 62));
    }

    #[test]
    fn bucket_index_matches_linear_scan() {
        let b = bucket_bounds();
        for v in [0, 1, 2, 8, 9, 10, 11, 16, 17, 1000, 1 << 40, u64::MAX] {
            let scan = b.iter().position(|&u| v <= u).unwrap_or(b.len());
            assert_eq!(bucket_index(v), scan, "v={v}");
        }
    }

    #[test]
    fn counters_gauges_and_histograms_record() {
        let hub = MetricsHub::new();
        hub.counter_add("events_total", 3);
        hub.counter_add("events_total", 2);
        hub.gauge_set("backlog", 7);
        hub.observe("frame_bytes", 9);
        hub.observe("frame_bytes", 1500);
        assert_eq!(hub.value("events_total"), Some(5));
        assert_eq!(hub.value("backlog"), Some(7));
        assert_eq!(hub.value("frame_bytes"), Some(2));
        assert_eq!(hub.histogram_sum("frame_bytes"), Some(1509));
        assert_eq!(hub.value("missing"), None);
    }

    #[test]
    fn renders_are_deterministic_and_sorted() {
        let build = || {
            let hub = MetricsHub::new();
            hub.gauge_set("zeta", 1);
            hub.counter_add("alpha_total", 2);
            hub.observe("mid_bytes", 12);
            hub.observe("mid_bytes", 13);
            hub
        };
        let (a, b) = (build(), build());
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        let json = a.render_json();
        let alpha = json.find("alpha_total").unwrap();
        let mid = json.find("mid_bytes").unwrap();
        let zeta = json.find("zeta").unwrap();
        assert!(alpha < zeta && zeta < mid, "counters, then gauges, then histograms");
    }

    #[test]
    fn prometheus_exposition_validates_and_buckets_are_cumulative() {
        let hub = MetricsHub::new();
        hub.counter_add("events_total", 5);
        hub.gauge_set("backlog", 7);
        for v in [1, 1, 2, 9, 10, 11, 5000] {
            hub.observe("frame_bytes", v);
        }
        hub.observe("repl_bytes{link=\"0\"}", 300);
        hub.observe("repl_bytes{link=\"1\"}", 4);
        let text = hub.render_prometheus();
        let samples = validate_exposition(&text).expect("exposition must parse");
        assert!(samples >= 10, "expected a real sample count, got {samples}");
        assert!(text.contains("# TYPE frame_bytes histogram\n"));
        assert!(text.contains("frame_bytes_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("frame_bytes_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("frame_bytes_bucket{le=\"+Inf\"} 7\n"));
        assert!(text.contains("frame_bytes_sum 5034\n"));
        assert!(text.contains("repl_bytes_bucket{link=\"0\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("repl_bytes_count{link=\"1\"} 1\n"));
        // Exactly one TYPE line per base family, even with two label sets.
        assert_eq!(text.matches("# TYPE repl_bytes histogram").count(), 1);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("no_type_line 4").is_err());
        assert!(validate_exposition("# TYPE x counter\nx 1.5").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{open 1").is_err());
        assert!(validate_exposition("# TYPE x widget\nx 1").is_err());
        assert!(
            validate_exposition("# TYPE x histogram\nx_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3")
                .is_err(),
            "non-cumulative buckets must be rejected"
        );
        assert_eq!(validate_exposition("# TYPE x counter\nx 1\nx 2"), Ok(2));
    }

    #[test]
    fn slo_state_fires_peaks_and_resolves() {
        let mut s = SloState::default();
        let t = SimTime::from_micros;
        assert_eq!(s.observe("lag", t(1), 3, 5), None);
        assert_eq!(s.observe("lag", t(2), 9, 5), None);
        assert!(s.active);
        assert_eq!(s.observe("lag", t(3), 12, 5), None);
        assert_eq!(s.observe("lag", t(4), 11, 5), None);
        let alert = s.observe("lag", t(5), 2, 5).expect("window closed");
        assert_eq!(
            alert,
            Alert { rule: "lag".into(), fired_at: t(2), resolved_at: Some(t(5)), peak: 12 }
        );
        assert_eq!(s.finish("lag"), None);
        assert_eq!(s.observe("lag", t(6), 99, 5), None);
        let open = s.finish("lag").expect("still firing");
        assert_eq!(open.resolved_at, None);
        assert_eq!(open.peak, 99);
    }

    #[test]
    fn alert_display_is_human_readable() {
        let a = Alert {
            rule: "ingest-backlog".into(),
            fired_at: SimTime::from_micros(2_000_000),
            resolved_at: Some(SimTime::from_micros(5_000_000)),
            peak: 42,
        };
        let s = format!("{a}");
        assert!(s.contains("ALERT ingest-backlog"), "{s}");
        assert!(s.contains("peak 42"), "{s}");
        let open = Alert { resolved_at: None, ..a };
        assert!(format!("{open}").contains("unresolved"), "{open}");
    }

    #[test]
    fn rule_constructors_carry_their_parameters() {
        let r = SloRule::queue_backlog("hot", "grade", DataVolume::gib(2));
        assert_eq!(r.name, "hot");
        assert_eq!(
            r.kind,
            SloKind::QueueBacklog { stage: "grade".into(), max_volume: DataVolume::gib(2) }
        );
        assert!(matches!(
            SloRule::replication_lag("lag", 10).kind,
            SloKind::ReplicationLag { max_weight: 10 }
        ));
        assert!(matches!(SloRule::escaped_taint("esc", 0).kind, SloKind::EscapedTaint { max: 0 }));
    }
}
