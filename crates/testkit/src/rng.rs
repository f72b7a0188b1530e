//! Seed derivation.
//!
//! Every random choice in a test must be traceable to one named `u64` seed,
//! the seed of a [`sciflow_core::rng::Rng`]; these helpers make that cheap
//! enough that no test reaches for ambient entropy.

use sciflow_core::md5::md5_strings;

/// Derive a sub-seed from a master seed and a label, so independent parts of
/// a scenario (fault plan, workload, jitter) get decorrelated but replayable
/// streams. Stable across runs and platforms: the derivation is an MD5 hash.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let digest = md5_strings(&[format!("{master:016x}"), label.to_string()]);
    let hex = digest.to_hex();
    u64::from_str_radix(&hex[..16], 16).expect("md5 hex is valid")
}

/// Environment variable the CI fault matrix sets to sweep the fault and
/// crash suites across several fixed seeds.
pub const FAULT_MATRIX_SEED_ENV: &str = "FAULT_MATRIX_SEED";

/// The seed the fault-injection and crash-recovery suites run under:
/// `FAULT_MATRIX_SEED` when set (CI runs the same tests once per seed),
/// otherwise `default`. An unparsable value is an error, not a silent
/// fallback — a typo in the matrix must not quietly retest one seed.
pub fn matrix_seed(default: u64) -> u64 {
    match std::env::var(FAULT_MATRIX_SEED_ENV) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{FAULT_MATRIX_SEED_ENV}={v:?} is not a u64: {e}")),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        let x = derive_seed(5, "faults");
        assert_eq!(x, derive_seed(5, "faults"));
        assert_ne!(x, derive_seed(5, "workload"));
        assert_ne!(x, derive_seed(6, "faults"));
    }
}
