//! What a pass produced, and whether it is what it should be.

use crate::stats::{fnv1a, fnv1a_update};

/// The named outputs of one pass. Every value must equal the warm-up
/// pass's of that name; some must also equal a value known beforehand.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outputs {
    values: Vec<(&'static str, u64)>,
    /// Absolute checks that failed, as `name: expected X, actual Y`.
    failures: Vec<String>,
}

impl Outputs {
    pub fn put(&mut self, name: &'static str, value: u64) {
        self.values.push((name, value));
    }

    /// Record `actual` and fail the pass unless it equals `expected`.
    pub fn expect(&mut self, name: &'static str, actual: u64, expected: u64) {
        if actual != expected {
            self.failures.push(format!("{name}: expected {expected}, actual {actual}"));
        }
        self.put(name, actual);
    }

    /// Record the FNV-1a of `bytes` under `name`.
    pub fn put_hash(&mut self, name: &'static str, bytes: &[u8]) {
        self.put(name, fnv1a(bytes));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no output named `{name}`"))
            .1
    }

    /// FNV-1a-64 over every name and value, in order: the `result_digest`.
    pub fn digest(&self) -> u64 {
        self.values.iter().fold(fnv1a(b"outputs"), |h, (name, value)| {
            fnv1a_update(fnv1a_update(h, name.as_bytes()), &value.to_le_bytes())
        })
    }

    /// Every way this pass is wrong: its failed absolute checks, and each
    /// value that differs from `reference`'s of the same name. (The warm-up
    /// pass, which is the reference, may record more than a timed pass.)
    pub fn failures_against(&self, reference: &Outputs) -> Vec<String> {
        let mut out = self.failures.clone();
        for (name, actual) in &self.values {
            match reference.values.iter().find(|(n, _)| n == name) {
                None => out.push(format!("{name}: not among the reference outputs")),
                Some((_, expected)) if expected != actual => {
                    out.push(format!("{name}: expected {expected}, actual {actual}"));
                }
                Some(_) => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(events: u64) -> Outputs {
        let mut o = Outputs::default();
        o.put("events_handled", events);
        o.expect("finished_at_us", 42, 42);
        o
    }

    #[test]
    fn equal_outputs_pass_and_share_a_digest() {
        assert!(sample(7).failures_against(&sample(7)).is_empty());
        assert_eq!(sample(7).digest(), sample(7).digest());
        assert_ne!(sample(7).digest(), sample(8).digest());
        assert_eq!(sample(7).get("events_handled"), 7);
    }

    #[test]
    fn a_differing_value_is_reported_with_expected_and_actual() {
        let got = sample(8).failures_against(&sample(7));
        assert_eq!(got, vec!["events_handled: expected 7, actual 8".to_string()]);
    }

    #[test]
    fn a_failed_absolute_check_fails_even_against_itself() {
        let mut o = Outputs::default();
        o.expect("units_added", 1999, 2000);
        let got = o.failures_against(&o.clone());
        assert_eq!(got, vec!["units_added: expected 2000, actual 1999".to_string()]);
    }
}
