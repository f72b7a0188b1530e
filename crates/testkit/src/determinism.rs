//! Replay-determinism assertions.
//!
//! The workspace's simulators promise that a seed fully determines a run.
//! [`assert_deterministic`] turns that promise into a test primitive: build
//! the scenario twice from the same seed and require *equal* results — not
//! statistically similar, equal.

use std::fmt::Debug;

use sciflow_core::obs::validate_exposition;

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
/// grammar ([`sciflow_core::obs::validate_exposition`]). Returns the family
/// count, which callers typically bound from below.
pub fn assert_exposition_deterministic(seed: u64, render: impl Fn(u64) -> String) -> usize {
    let text = assert_deterministic(seed, render);
    validate_exposition(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: exposition fails to parse: {e}"))
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
