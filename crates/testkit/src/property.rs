//! The workspace's one property harness.
//!
//! [`check`] runs a property over seeded cases, each drawing its inputs
//! through a [`Gen`]. Every case is one `u64` case seed, built the way the
//! zoo builds graph seeds ([`sciflow_core::genflow`]): the low 56 bits seed
//! the draw stream and the high byte is a shrink level, which narrows every
//! collection and string length. When a case fails, the same payload is
//! re-run at levels 3, 2 and 1, and the panic names the deepest case seed
//! that still fails, so the counterexample is one replayable line:
//! `Gen::new(seed)` redraws its exact inputs on any machine.
//!
//! Assertions are ordinary panics (`assert!`, `assert_eq!`, `expect`);
//! [`Gen::assume`] rejects a case instead of failing it.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use sciflow_core::genflow::{shrink_level, with_shrink_level, MAX_SHRINK_LEVEL, SEED_PAYLOAD_MASK};
use sciflow_core::rng::{Rng, Standard, Uniform};

use crate::rng::{derive_seed, matrix_seed};

/// The matrix seed when `FAULT_MATRIX_SEED` is unset: the CI matrix's first
/// entry, the default of the fault suites too.
const DEFAULT_MATRIX_SEED: u64 = 42;

/// How many rejected cases [`Gen::assume`] may cost per case the property
/// must pass before [`check`] gives up on the property.
const REJECTS_PER_CASE: u32 = 50;

/// Run `prop` until `cases` cases pass; on a failure, shrink and panic.
///
/// Case `i` runs from the case seed derived from `name`, the matrix seed
/// ([`matrix_seed`], so each CI matrix entry draws different cases) and
/// `i`. Rejected cases are skipped, at most 50 × `cases` of them. The panic
/// on failure quotes the property's name, the deepest still-failing case
/// seed, the failure and the inputs that case drew.
///
/// ```
/// sciflow_testkit::check("reversal_is_an_involution", 64, |g| {
///     let v = g.vec(0..100, |g| g.any::<u32>());
///     let mut w = v.clone();
///     w.reverse();
///     w.reverse();
///     assert_eq!(w, v);
/// });
/// ```
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    run(name, matrix_seed(DEFAULT_MATRIX_SEED), cases, &prop);
}

/// The level-0 case seed of case `index` of property `name` under the
/// matrix seed `matrix`. Pure: stable across runs and platforms.
fn case_seed(name: &str, matrix: u64, index: u64) -> u64 {
    derive_seed(matrix, &format!("{name}#{index}")) & SEED_PAYLOAD_MASK
}

fn run(name: &str, matrix: u64, cases: u32, prop: &impl Fn(&mut Gen)) {
    let (mut passed, mut rejected) = (0u32, 0u32);
    for index in 0.. {
        if passed == cases {
            return;
        }
        let seed = case_seed(name, matrix, index);
        match attempt(seed, prop) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejected += 1;
                assert!(
                    rejected <= REJECTS_PER_CASE * cases,
                    "property `{name}`: Gen::assume rejected {rejected} cases while \
                     {passed} of {cases} passed; draw inputs that meet the assumption"
                );
            }
            Outcome::Fail(first) => {
                let mut failure = first;
                let culprit = shrink(seed, |candidate| match attempt(candidate, prop) {
                    Outcome::Fail(f) => {
                        failure = f;
                        true
                    }
                    _ => false,
                });
                let inputs: String = failure
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(i, v)| format!("\n    #{i}: {v}"))
                    .collect();
                panic!(
                    "property `{name}` failed at case seed {culprit:#018x} (shrink level {} of \
                     {seed:#018x}, after {passed} passing cases): {}\n  inputs:{inputs}\n  \
                     reproduce by running the property on sciflow_testkit::Gen::new({culprit:#018x})",
                    shrink_level(culprit),
                    failure.message,
                );
            }
        }
    }
}

/// The deepest shrink level of `seed` at which `fails` still holds — level
/// [`MAX_SHRINK_LEVEL`] first, down to 1 — or `seed` itself when none does.
/// The one shrink loop, behind [`check`] and [`crate::check_generated`].
pub(crate) fn shrink(seed: u64, mut fails: impl FnMut(u64) -> bool) -> u64 {
    (1..=MAX_SHRINK_LEVEL)
        .rev()
        .map(|level| with_shrink_level(seed, level))
        .find(|&candidate| fails(candidate))
        .unwrap_or(seed)
}

enum Outcome {
    Pass,
    Reject,
    Fail(Failure),
}

struct Failure {
    message: String,
    inputs: Vec<String>,
}

/// The unwind payload of [`Gen::assume`].
struct Rejected;

fn attempt(seed: u64, prop: &impl Fn(&mut Gen)) -> Outcome {
    let mut g = Gen::new(seed);
    match catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
        Ok(()) => Outcome::Pass,
        Err(payload) if payload.is::<Rejected>() => Outcome::Reject,
        Err(payload) => {
            Outcome::Fail(Failure { message: panic_message(&*payload), inputs: g.inputs })
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<String>(), payload.downcast_ref::<&str>()) {
        (Some(s), _) => s.clone(),
        (None, Some(s)) => s.to_string(),
        (None, None) => "non-string panic payload".to_string(),
    }
}

/// The draws of one case, replayable from its case seed.
///
/// The seed's low 56 bits seed the stream; its high byte is the shrink
/// level `L`. At level `L` every collection or string length range keeps
/// its minimum and its maximum becomes `min + ((max − min) >> L)`: the
/// length drawn at level 0 is shifted right by `L`, and the elements are a
/// prefix of the level-0 ones as long as nothing else is drawn between.
/// Fixed lengths such as `64..=64` never shrink, nor do scalar ranges.
///
/// Each top-level draw is recorded, so a failing case reports its inputs.
pub struct Gen {
    rng: Rng,
    level: u32,
    depth: u32,
    inputs: Vec<String>,
}

impl Gen {
    /// The generator of case seed `seed`: what [`check`]'s panic tells you
    /// to replay. The same seed draws the same inputs; the same payload at
    /// a higher shrink level draws shorter collections.
    ///
    /// ```
    /// use sciflow_testkit::Gen;
    ///
    /// let draw = |seed| Gen::new(seed).vec(0..64, |g| g.any::<u8>());
    /// assert_eq!(draw(0x5eed), draw(0x5eed));
    /// let shrunk = draw(0x0300_0000_0000_5eed);
    /// assert_eq!(shrunk[..], draw(0x5eed)[..shrunk.len()]);
    /// ```
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::seed_from_u64(seed & SEED_PAYLOAD_MASK),
            level: shrink_level(seed),
            depth: 0,
            inputs: Vec::new(),
        }
    }

    /// A value over the type's whole range (`[0, 1)` for floats).
    pub fn any<T: Standard + Debug>(&mut self) -> T {
        self.draw(|g| g.rng.gen())
    }

    /// A value uniform in `range`, such as `0..32` or `1.0..4.0`.
    pub fn range<T: Uniform + Debug>(&mut self, range: impl RangeBounds<T>) -> T {
        self.draw(|g| g.rng.gen_range(range))
    }

    /// A vector whose length is drawn from `len`, each element by `element`.
    pub fn vec<T: Debug>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        self.draw(|g| {
            let n = g.len(len);
            (0..n).map(|_| element(g)).collect()
        })
    }

    /// A set aiming at a size drawn from `len`; smaller when `element`'s
    /// domain runs out of distinct values.
    pub fn set<T: Ord + Debug>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> BTreeSet<T> {
        self.draw(|g| g.map(len, |g| (element(g), ())).into_keys().collect())
    }

    /// A map aiming at a size drawn from `len`, each entry by `entry`;
    /// smaller when the key domain runs out of distinct keys.
    pub fn map<K: Ord + Debug, V: Debug>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut entry: impl FnMut(&mut Gen) -> (K, V),
    ) -> BTreeMap<K, V> {
        self.draw(|g| {
            let target = g.len(len);
            let mut map = BTreeMap::new();
            // Bounded, so that generation ends on a domain smaller than the
            // target.
            for _ in 0..50 * (target + 1) {
                if map.len() == target {
                    break;
                }
                let (k, v) = entry(g);
                map.insert(k, v);
            }
            map
        })
    }

    /// A string whose length is drawn from `len`, each character from
    /// `class`: literals and `a-z` ranges, as inside a regex `[…]`
    /// (a `-` at either end is a literal).
    pub fn string(&mut self, class: &str, len: impl RangeBounds<usize>) -> String {
        let alphabet = char_class(class);
        self.draw(|g| {
            let n = g.len(len);
            (0..n).map(|_| alphabet[g.rng.gen_range(0..alphabet.len())]).collect()
        })
    }

    /// One of `choices`, picked uniformly, then drawn.
    ///
    /// ```
    /// let mut g = sciflow_testkit::Gen::new(7);
    /// let word = g.one_of(&[|_| "none".to_string(), |g| g.string("a-z", 1..=8)]);
    /// assert!(!word.is_empty() && word.chars().all(|c| c.is_ascii_lowercase()));
    /// ```
    pub fn one_of<T: Debug>(&mut self, choices: &[fn(&mut Gen) -> T]) -> T {
        self.draw(|g| {
            let pick = g.rng.gen_range(0..choices.len());
            choices[pick](g)
        })
    }

    /// Reject this case unless `holds`: [`check`] draws another one in its
    /// place, silently.
    ///
    /// ```
    /// sciflow_testkit::check("even_halves_double_back", 64, |g| {
    ///     let n = g.range(0u32..1000);
    ///     g.assume(n % 2 == 0);
    ///     assert_eq!(n / 2 * 2, n);
    /// });
    /// ```
    pub fn assume(&self, holds: bool) {
        if !holds {
            resume_unwind(Box::new(Rejected));
        }
    }

    /// A length from `range`, narrowed by the shrink level.
    fn len(&mut self, range: impl RangeBounds<usize>) -> usize {
        let min = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let max = match range.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_sub(1).expect("length range is not empty"),
            Bound::Unbounded => panic!("length range needs an upper bound"),
        };
        assert!(min <= max, "empty length range {min}..={max}");
        min + (self.rng.gen_range(0..=max - min) >> self.level)
    }

    /// Run one draw, recording its value when it is not part of another.
    fn draw<T: Debug>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> T {
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        if self.depth == 0 {
            self.inputs.push(format!("{value:?}"));
        }
        value
    }
}

fn char_class(class: &str) -> Vec<char> {
    let chars: Vec<char> = class.chars().collect();
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            assert!(chars[i] <= chars[i + 2], "bad range in character class `{class}`");
            alphabet.extend(chars[i]..=chars[i + 2]);
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    assert!(!alphabet.is_empty(), "empty character class");
    alphabet
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{set_hook, take_hook};
    use std::sync::Arc;

    use super::*;

    fn failure_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the property fails");
        panic_message(&*payload)
    }

    /// The case seed a failure message names.
    fn reported_seed(msg: &str) -> u64 {
        let at =
            msg.find("case seed 0x").expect("message names a case seed") + "case seed 0x".len();
        u64::from_str_radix(&msg[at..at + 16], 16).expect("16 hex digits")
    }

    #[test]
    fn case_seeds_follow_the_matrix_seed() {
        // Pinned: the cases a property draws with `FAULT_MATRIX_SEED` unset.
        assert_eq!(case_seed("p", DEFAULT_MATRIX_SEED, 0), 0x0020_5388_1e67_1ec8);
        assert_ne!(case_seed("p", 42, 0), case_seed("p", 7, 0));
        assert_ne!(case_seed("p", 42, 0), case_seed("p", 42, 1));
        assert_ne!(case_seed("p", 42, 0), case_seed("q", 42, 0));
        assert_eq!(shrink_level(case_seed("p", 7, 3)), 0);
    }

    #[test]
    fn passing_properties_print_nothing() {
        thread_local!(static HOOK_CALLS: Cell<u32> = const { Cell::new(0) });
        let previous = Arc::new(take_hook());
        set_hook(Box::new({
            let previous = Arc::clone(&previous);
            move |info| {
                HOOK_CALLS.with(|c| c.set(c.get() + 1));
                previous(info)
            }
        }));
        let passes = Cell::new(0);
        run("quiet", DEFAULT_MATRIX_SEED, 64, &|g| {
            let v = g.vec(0..16, |g| g.any::<u8>());
            g.assume(v.len() % 2 == 0);
            assert!(v.len() < 16);
            passes.set(passes.get() + 1);
        });
        drop(take_hook());
        set_hook(Box::new(move |info| previous(info)));
        assert_eq!(HOOK_CALLS.with(Cell::get), 0, "a passing run reached the panic hook");
        assert_eq!(passes.get(), 64);
    }

    #[test]
    fn failing_properties_name_a_replayable_case_seed() {
        let prop = |g: &mut Gen| {
            let v = g.vec(0..64, |g| g.range(0u32..10));
            assert!(v.iter().sum::<u32>() < 20, "sum too large");
        };
        let msg = failure_of(|| run("sums_stay_small", DEFAULT_MATRIX_SEED, 64, &prop));
        assert!(msg.contains("property `sums_stay_small` failed"), "{msg}");
        assert!(msg.contains("sum too large") && msg.contains("#0: ["), "{msg}");
        let seed = reported_seed(&msg);
        assert!(catch_unwind(AssertUnwindSafe(|| prop(&mut Gen::new(seed)))).is_err());
    }

    #[test]
    fn failures_shrink_to_shorter_inputs() {
        let prop = |g: &mut Gen| assert!(g.vec(0..64, |g| g.any::<u8>()).len() < 3);
        let seed = reported_seed(&failure_of(|| run("short", DEFAULT_MATRIX_SEED, 64, &prop)));
        assert!(shrink_level(seed) >= 1, "{seed:#018x} was not shrunk");
        let len = |seed| Gen::new(seed).vec(0..64, |g| g.any::<u8>()).len();
        assert!(len(seed) >= 3 && len(seed) < len(seed & SEED_PAYLOAD_MASK));
    }

    #[test]
    fn fixed_lengths_never_shrink() {
        for level in 0..=MAX_SHRINK_LEVEL {
            let mut g = Gen::new(with_shrink_level(0x5eed, level));
            assert_eq!(g.vec(64..=64, |g| g.any::<u8>()).len(), 64);
            assert_eq!(g.string("a-z", 8..=8).len(), 8);
        }
    }

    #[test]
    fn draws_stay_in_their_ranges_at_every_level() {
        for index in 0..32 {
            for level in 0..=MAX_SHRINK_LEVEL {
                let mut g = Gen::new(with_shrink_level(case_seed("ranges", 42, index), level));
                assert!((-5..=5).contains(&g.range(-5i64..=5)));
                assert!((0.0..1.0).contains(&g.range(0.0f64..1.0)));
                let s = g.string("a-z0-9./-", 1..=8);
                assert!((1..=8).contains(&s.len()), "{s:?}");
                assert!(s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "./-".contains(c)));
                assert!((1..10).contains(&g.set(1..10, |g| g.range(0u64..100)).len()));
                assert!(g.map(0..40, |g| (g.range(0u8..3), ())).len() <= 3);
                let pick: u8 = g.one_of(&[|g| g.range(0..4), |_| 9]);
                assert!(pick < 4 || pick == 9);
            }
        }
    }

    #[test]
    fn too_many_rejections_panic_clearly() {
        let msg = failure_of(|| run("picky", DEFAULT_MATRIX_SEED, 4, &|g| g.assume(false)));
        assert!(msg.contains("property `picky`: Gen::assume rejected 201 cases"), "{msg}");
    }
}
