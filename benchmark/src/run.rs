//! Measuring one workload: set-up, the warm-up pass, timed passes with
//! their output checks, and (traced) the spans summarised per layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog::{self, Home};
use crate::check::Outputs;
use crate::scratch::Scratch;
use crate::stats::{low_decile, quartiles, tail};
use crate::sut;
use crate::trace::{Summary, Tracer, HARNESS};
use crate::workloads::{self, LayerCtx, LayerMetrics, Sizes};

/// How one workload is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end numbers.
    Untraced,
    /// Untraced and traced passes alternate, so the run measures its own
    /// tracing overhead; the traced ones give the per-layer numbers.
    Traced,
    /// One traced pass, to fill in the layers the named workload bypasses.
    Survey,
}

pub struct Plan {
    pub mode: Mode,
    /// Timed passes run until this many seconds have gone by…
    pub seconds: f64,
    /// …and at least this many have run.
    pub min_passes: usize,
    /// Set-ups made before the warm-up pass…
    pub setups: usize,
    /// …and further ones between timed passes, for as long as they have
    /// taken less than this share of the time measured so far: `setup_s`
    /// then samples the whole window and not only its first instant, which
    /// one burst of host interference can cover.
    pub setup_share: f64,
}

/// Traced passes (after set-up and warm-up) whose spans the trace file lists.
pub const PASSES_IN_TRACE_FILE: u32 = 3;

pub struct Measured {
    pub workload: &'static str,
    pub reference: Outputs,
    /// Timed passes, and those whose output check failed.
    pub attempted: u64,
    pub failed: u64,
    /// `pass N: name: expected X, actual Y`, first few only.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// Work units of one pass.
    pub work: (f64, &'static str),
    /// Metrics homed on this workload (traced modes only).
    pub layer: LayerMetrics,
    /// Seconds of self time per quiet traced pass, by layer.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Measured {
    /// The passes `pass_s` is taken over.
    pub fn timed(&self) -> &[f64] {
        if self.untraced_s.is_empty() {
            &self.traced_s
        } else {
            &self.untraced_s
        }
    }
}

const MAX_FAILURES_KEPT: usize = 8;

pub fn measure(
    workload: &'static str,
    seed: u64,
    sizes: &'static Sizes,
    scratch: &Scratch,
    plan: &Plan,
) -> Measured {
    let tracing = plan.mode != Mode::Untraced;
    let mut t = Tracer::new(tracing);

    let mut setup_s = Vec::new();
    let mut set_up = |t: &mut Tracer| {
        let start = Instant::now();
        let root = t.enter(HARNESS, "setup");
        let w = workloads::set_up(workload, seed, sizes, scratch, t);
        t.exit(root);
        setup_s.push(start.elapsed().as_secs_f64());
        w
    };
    let mut w = set_up(&mut t);
    for _ in 1..plan.setups {
        w = set_up(&mut t);
    }

    t.set_enabled(false);
    w.prep(&mut t);
    t.set_enabled(tracing);
    let root = t.enter(HARNESS, "warmup");
    let reference = w.pass(true, &mut t);
    t.exit(root);

    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let (mut prep_total_s, mut untraced_s, mut traced_s) = (0.0, Vec::new(), Vec::new());
    let mut traced_passes = Vec::new();
    let mut between_passes_s = 0.0;
    let measuring = Instant::now();
    while (attempted as usize) < plan.min_passes || measuring.elapsed().as_secs_f64() < plan.seconds
    {
        attempted += 1;
        t.set_enabled(false);
        if between_passes_s < plan.setup_share * measuring.elapsed().as_secs_f64() {
            let start = Instant::now();
            drop(set_up(&mut t));
            between_passes_s += start.elapsed().as_secs_f64();
        }
        let start = Instant::now();
        w.prep(&mut t);
        prep_total_s += start.elapsed().as_secs_f64();

        let traced = match plan.mode {
            Mode::Untraced => false,
            Mode::Traced => attempted % 2 == 0,
            Mode::Survey => true,
        };
        t.set_enabled(traced);
        t.set_pass(attempted as u32);
        let start = Instant::now();
        let root = t.enter(HARNESS, "pass");
        let wrong = w.pass(false, &mut t).failures_against(&reference);
        t.exit(root);
        let elapsed = start.elapsed().as_secs_f64();
        if traced {
            traced_s.push(elapsed);
            traced_passes.push(attempted as u32);
        } else {
            untraced_s.push(elapsed);
        }

        if !wrong.is_empty() {
            failed += 1;
            for f in wrong {
                if failures.len() < MAX_FAILURES_KEPT {
                    failures.push(format!("pass {attempted}: {f}"));
                }
            }
        }
    }

    let (mut layer, mut layer_self_s) = (Vec::new(), BTreeMap::new());
    if tracing {
        // Layer numbers come from the quiet passes: the fastest quarter of
        // the traced ones, which host interference touched least — so that
        // they describe the same passes `pass_s` does.
        let mut by_time: Vec<(f64, u32)> = traced_s.iter().copied().zip(traced_passes).collect();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_time.truncate(by_time.len().div_ceil(4));
        let quiet: Vec<u32> = by_time.iter().map(|(_, pass)| *pass).collect();

        let setup = Summary::of(t.spans(), |pass| pass == 0);
        let passes = Summary::of(t.spans(), |pass| quiet.contains(&pass));
        let ctx = LayerCtx { setup: &setup, passes: &passes, reference: &reference };
        layer = w.layer_metrics(&ctx);
        layer.push(("harness.prep_s", prep_total_s / attempted as f64));
        for (name, ns) in &passes.layer_self_ns {
            layer_self_s.insert(*name, *ns as f64 / 1e9 / quiet.len() as f64);
        }
    }
    let work = w.work(&reference);
    Measured {
        workload,
        reference,
        attempted,
        failed,
        failures,
        setup_s,
        untraced_s,
        traced_s,
        work,
        layer,
        layer_self_s,
        tracer: t,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics the harness itself contributes to the traced run.
pub fn harness_metrics(m: &Measured) -> LayerMetrics {
    let (q1, q3) = quartiles(&m.traced_s);
    let (pct, tail_s) = tail(&m.traced_s);
    vec![
        ("harness.samples", m.traced_s.len() as f64),
        ("harness.pass_q1_s", q1),
        ("harness.pass_q3_s", q3),
        ("harness.pass_tail_s", tail_s),
        ("harness.tail_pct", f64::from(pct)),
        ("harness.trace_overhead", low_decile(&m.traced_s) / low_decile(&m.untraced_s) - 1.0),
    ]
}

/// The probe metrics: tight loops over single layers, seeded like the rest.
pub fn probes(seed: u64, quick: bool, t: &mut Tracer) -> LayerMetrics {
    // The smoke runs a tenth of every loop.
    let d = if quick { 10 } else { 1 };
    let hold = sut::probe_engine(seed, 10_000 / d as u32, 1_000_000 / d, false, t);
    let due = sut::probe_engine(seed, 10_000 / d as u32, 2_000_000 / d, true, t);
    let slab = sut::probe_slab(seed, 10_000, 4_000_000 / d, t);
    let resource = sut::probe_resource(200_000 / d, t);
    let counter = sut::probe_counter_add(2_000_000 / d, t);
    let fnv = sut::probe_fnv(seed, 1 << 20, 64 / d, t);
    let md5 = sut::probe_md5(seed, 1 << 20, 32 / d, t);
    let meta = sut::probe_metastore(seed, 50_000 / d, t);
    vec![
        ("core.engine.hold_ns_per_event", hold.ns_per_op()),
        ("core.engine.due_ns_per_event", due.ns_per_op()),
        ("core.slab.churn_ns_per_op", slab.ns_per_op()),
        ("core.resource.dispatch_ns_per_op", resource.ns_per_op()),
        ("core.obs.counter_add_ns", counter.ns_per_op()),
        ("core.fnv.mb_per_s", fnv.mb_per_s()),
        ("core.md5.mb_per_s", md5.mb_per_s()),
        ("metastore.table.insert_ns_per_row", meta.insert.ns_per_op()),
        ("metastore.table.get_by_key_ns", meta.get_by_key.ns_per_op()),
        ("metastore.query.select_indexed_us", meta.select_indexed.us_per_op()),
        ("metastore.query.select_scan_us", meta.select_scan.us_per_op()),
        ("metastore.db.execute_ns_per_op", meta.execute.ns_per_op()),
        ("metastore.persist.seal_mb_per_s", meta.seal.mb_per_s()),
        ("metastore.persist.unseal_mb_per_s", meta.unseal.mb_per_s()),
    ]
}

/// Every per-layer metric of the catalogue, each from its home: the named
/// workload's traced passes, a one-pass survey of each other workload, the
/// probes, and the harness.
pub fn per_layer(
    main: &Measured,
    surveys: &[Measured],
    probes: &LayerMetrics,
) -> Vec<(&'static catalog::PerLayer, f64)> {
    let harness = harness_metrics(main);
    let find = |from: &LayerMetrics, name: &str| from.iter().find(|(n, _)| *n == name).map(|m| m.1);
    catalog::PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.home {
                Home::Probe => find(probes, def.name),
                Home::Harness => find(&harness, def.name),
                Home::Workload(w) => std::iter::once(main)
                    .chain(surveys)
                    .find(|m| m.workload == w)
                    .and_then(|m| find(&m.layer, def.name)),
            };
            (def, value.unwrap_or_else(|| panic!("nothing measured `{}`", def.name)))
        })
        .collect()
}
