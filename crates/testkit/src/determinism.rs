//! Replay-determinism assertions.
//!
//! The workspace's simulators promise that a seed fully determines a run.
//! [`assert_deterministic`] turns that promise into a test primitive: build
//! the scenario twice from the same seed and require *equal* results — not
//! statistically similar, equal. [`validate_exposition`] holds a Prometheus
//! text exposition to the format's grammar.

use std::fmt::Debug;

/// Run `scenario(seed)` twice and require identical results; returns the
/// (verified) result for further assertions.
///
/// `scenario` must be a pure function of its seed — any ambient entropy
/// (wall clock, hash-map iteration order, thread timing) shows up here as a
/// failure, which is exactly the point.
pub fn assert_deterministic<T: PartialEq + Debug>(seed: u64, scenario: impl Fn(u64) -> T) -> T {
    let first = scenario(seed);
    let second = scenario(seed);
    assert_eq!(
        first, second,
        "scenario is not deterministic for seed {seed}: two replays disagree"
    );
    first
}

/// [`assert_deterministic`] specialized to Prometheus exposition text: the
/// renders must be byte-identical *and* parse under the exposition-format
/// grammar ([`validate_exposition`]). Returns the family count, which
/// callers typically bound from below.
pub fn assert_exposition_deterministic(seed: u64, render: impl Fn(u64) -> String) -> usize {
    let text = assert_deterministic(seed, render);
    validate_exposition(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: exposition fails to parse: {e}"))
}

/// Validate a Prometheus text exposition line by line; returns the number
/// of sample lines on success, or the first offending line on failure.
///
/// Checks: every non-comment line is `name[{labels}] <integer>`, metric
/// names are legal, every sample is preceded by a `# TYPE` for its base
/// family, and histogram bucket series are cumulative (non-decreasing).
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let (Some(base), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("malformed TYPE line: {line:?}"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown metric kind in: {line:?}"));
            }
            typed.push(base.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("sample without value: {line:?}"));
        };
        let Ok(v) = value.parse::<u64>() else {
            return Err(format!("non-integer sample value in: {line:?}"));
        };
        let (full, labels) = series.split_at(series.find('{').unwrap_or(series.len()));
        if labels.len() == 1 || (!labels.is_empty() && !labels.ends_with('}')) {
            return Err(format!("unbalanced labels in: {line:?}"));
        }
        if full.is_empty()
            || !full.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("illegal metric name in: {line:?}"));
        }
        let family = full
            .strip_suffix("_bucket")
            .or_else(|| full.strip_suffix("_sum"))
            .or_else(|| full.strip_suffix("_count"))
            .filter(|f| typed.iter().any(|t| t == f))
            .unwrap_or(full);
        if !typed.iter().any(|t| t == family) {
            return Err(format!("sample before its TYPE line: {line:?}"));
        }
        if full.ends_with("_bucket") {
            let inner = labels.get(1..labels.len().saturating_sub(1)).unwrap_or("");
            let non_le: Vec<&str> = inner.split(',').filter(|p| !p.starts_with("le=")).collect();
            let key_wo_le = format!("{family}{{{}}}", non_le.join(","));
            if let Some((prev_key, prev)) = &last_bucket {
                if *prev_key == key_wo_le && v < *prev {
                    return Err(format!("non-cumulative bucket series at: {line:?}"));
                }
            }
            last_bucket = Some((key_wo_le, v));
        } else {
            last_bucket = None;
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::rng::Rng;

    #[test]
    fn deterministic_scenarios_pass_and_return() {
        let v = assert_deterministic(9, |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..10).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
        });
        assert_eq!(v.len(), 10);
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn impure_scenarios_are_caught() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        assert_deterministic(9, |_seed| CALLS.fetch_add(1, Ordering::SeqCst));
    }
}
