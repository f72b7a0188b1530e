//! Spans around every call the harness makes into a layer of the system.
//!
//! The traced run keeps spans in memory and writes them out at exit; the
//! untraced run pays one branch per call. A layer's *self time* is its
//! spans' durations minus the part their child spans cover, so self times
//! of all layers (the `harness` layer included) add up to the pass time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer of the harness's own glue: input cloning, output checks, hashing.
pub const HARNESS: &str = "harness";

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call. A span's id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    /// 0 for set-up and the warm-up pass, then 1, 2, … for timed passes.
    pub pass: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, closed with [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    /// Switch recording on or off between passes (the traced run alternates
    /// traced and untraced passes to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.enabled = enabled;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that will have children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { parent, pass: self.pass, layer, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, span: Open) {
        if span.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Record a leaf span around `f`.
    #[inline]
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }
}

/// Calls and total duration of one `(layer, name)` over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    pub calls: u64,
    pub total_ns: u64,
}

impl CallStats {
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean duration of one call, in seconds (0 when never called).
    pub fn secs_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs() / self.calls as f64
        }
    }
}

/// Every span's self time: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// What the traced run reports from its spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Duration per `(layer, name)`.
    pub calls: BTreeMap<(&'static str, &'static str), CallStats>,
    /// Self time per layer, in ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// Summarise the spans whose pass number satisfies `keep`.
    pub fn of(spans: &[Span], keep: impl Fn(u32) -> bool) -> Self {
        let own = self_times_ns(spans);
        let mut out = Summary::default();
        for (s, own_ns) in spans.iter().zip(own) {
            if !keep(s.pass) {
                continue;
            }
            let c = out.calls.entry((s.layer, s.name)).or_default();
            c.calls += 1;
            c.total_ns += s.duration_ns();
            *out.layer_self_ns.entry(s.layer).or_default() += own_ns;
        }
        out
    }

    pub fn get(&self, layer: &'static str, name: &'static str) -> CallStats {
        self.calls.get(&(layer, name)).copied().unwrap_or_default()
    }
}

/// Render spans as a JSON document: one object per span with its id, parent
/// (`null` for roots), pass, layer, name, start and end.
pub fn render_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 128);
    let _ =
        write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[");
    let mut first = true;
    for (id, s) in spans.iter().enumerate() {
        if !keep(s.pass) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n{{\"id\":{id},\"parent\":");
        if s.parent == NO_PARENT {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.parent);
        }
        let _ = write!(
            out,
            ",\"pass\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.pass, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        parent: u32,
        pass: u32,
        layer: &'static str,
        name: &'static str,
        a: u64,
        b: u64,
    ) -> Span {
        Span { parent, pass, layer, name, start_ns: a, end_ns: b }
    }

    /// pass(0..100) ⊃ run(10..60) ⊃ {seal(20..30), seal(40..45)}, report(70..90).
    fn synthetic() -> Vec<Span> {
        vec![
            span(NO_PARENT, 1, HARNESS, "pass", 0, 100),
            span(0, 1, "sim", "run", 10, 60),
            span(1, 1, "durable", "seal", 20, 30),
            span(1, 1, "durable", "seal", 40, 45),
            span(0, 1, "sim", "report", 70, 90),
            span(NO_PARENT, 2, HARNESS, "pass", 100, 140),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let own = self_times_ns(&synthetic());
        assert_eq!(own, vec![30, 35, 10, 5, 20, 40]);
    }

    #[test]
    fn layer_self_times_add_up_to_the_root_spans() {
        let spans = synthetic();
        let s = Summary::of(&spans, |p| p >= 1);
        assert_eq!(s.layer_self_ns[HARNESS], 70);
        assert_eq!(s.layer_self_ns["sim"], 55);
        assert_eq!(s.layer_self_ns["durable"], 15);
        assert_eq!(s.layer_self_ns.values().sum::<u64>(), 140);
        assert_eq!(s.get("durable", "seal"), CallStats { calls: 2, total_ns: 15 });
        assert_eq!(s.get("sim", "absent"), CallStats::default());
    }

    #[test]
    fn summary_keeps_only_the_selected_passes() {
        let s = Summary::of(&synthetic(), |p| p == 2);
        assert_eq!(s.layer_self_ns.values().sum::<u64>(), 40);
        assert_eq!(s.get(HARNESS, "pass").calls, 1);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let root = t.enter(HARNESS, "pass");
        let v = t.span("sim", "run", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!(spans[1].pass, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.enter(HARNESS, "pass");
        assert_eq!(t.span("sim", "run", || 1), 1);
        t.exit(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_lists_the_kept_spans_with_null_root_parents() {
        let text = render_json("w", 1, &synthetic(), |p| p == 2);
        assert!(text.contains("\"id\":5,\"parent\":null,\"pass\":2,\"layer\":\"harness\""));
        assert!(!text.contains("\"id\":0,"));
    }
}
