//! Order statistics over pass times, and the FNV-1a the output checks use.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The 10th percentile: the value a tenth of the samples are faster than.
///
/// This is what `pass_s` reports. Every pass does identical work, so passes
/// differ only by what the host adds; on the shared two-core VM this was
/// written on, interference comes in bursts of a second or more that moved
/// the *median* of an 8-second run by up to 40% while the fast tenth stayed
/// within a few percent.
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "low decile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 10]
}

/// Samples a tail percentile needs beyond it to mean anything.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it, as
/// `(percent, value)`. With 20 or fewer samples that percentile would sit at
/// or below the median, so the maximum is reported as the 100th instead.
pub fn tail(values: &[f64]) -> (u32, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return (100, v[n - 1]);
    }
    let idx = n - TAIL_BEYOND - 1;
    ((100 * idx / n) as u32, v[idx])
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 continued from `hash`: the harness's own, so hashing outputs
/// for a check is never charged to the system's `core.fnv` layer.
pub fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// SplitMix64: the harness's seeded generator for shuffles and probe inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), (0.75, 2.25));
    }

    #[test]
    fn low_decile_has_a_tenth_of_the_samples_below_it() {
        assert_eq!(low_decile(&ramp(9)), 1.0);
        assert_eq!(low_decile(&ramp(12)), 2.0);
        assert_eq!(low_decile(&ramp(60)), 7.0);
        assert_eq!(low_decile(&[5.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 12 samples: too few for a tail above the median; the maximum.
        assert_eq!(tail(&ramp(12)), (100, 12.0));
        assert_eq!(tail(&ramp(20)), (100, 20.0));
        // 30 samples: index 19 has ten beyond it, 19/30 = p63.
        assert_eq!(tail(&ramp(30)), (63, 20.0));
        // 40 samples: index 29, 29/40 = p72.
        assert_eq!(tail(&ramp(40)), (72, 30.0));
        // 25 samples: index 14, p56 (the figure the issue quotes).
        assert_eq!(tail(&ramp(25)), (56, 15.0));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<u32>>());
    }
}
