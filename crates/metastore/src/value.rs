//! Typed values stored in metadata tables.
//!
//! All three projects in the paper converged on relational technology for
//! their metadata ("the challenge to manage large amounts of data products
//! created the need to move away from a flat-file based approach towards a
//! solution that relies on (relational) database technology"). This module
//! provides the value model for our embedded stand-in.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Int,
    Real,
    Text,
    Blob,
    /// Calendar date stored as a `YYYYMMDD` integer key; day granularity is
    /// what EventStore snapshots and Retro-Browser lookups need.
    Date,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Real => "REAL",
            ValueType::Text => "TEXT",
            ValueType::Blob => "BLOB",
            ValueType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
    Date(u32),
}

impl Value {
    pub fn type_of(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Real(_) => Some(ValueType::Real),
            Value::Text(_) => Some(ValueType::Text),
            Value::Blob(_) => Some(ValueType::Blob),
            Value::Date(_) => Some(ValueType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Total order used by indexes and ORDER BY: nulls first, then by type
    /// rank (Int/Real interleaved numerically, and exactly: no `Int` is
    /// rounded to a float), then by value. `Real` uses IEEE total ordering
    /// so NaN has a stable position and `-0.0` sits just below `Int(0)`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Real(_) => 1,
                Date(_) => 2,
                Text(_) => 3,
                Blob(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Int(a), Real(b)) => int_real_cmp(*a, *b),
            (Real(a), Int(b)) => int_real_cmp(*b, *a).reverse(),
            (Date(a), Date(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// `a` against `b` exactly, placed as `(a as f64).total_cmp(&b)` would place
/// them if the cast never rounded: NaN beyond the infinity on its sign's
/// side, `-0.0` below `0`.
fn int_real_cmp(a: i64, b: f64) -> Ordering {
    // 2^63, the first float above every i64; -2^63 is i64::MIN itself.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if !(-TWO_63..TWO_63).contains(&b) {
        return if b.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    // `b.trunc()` is an integer in range, so the cast is exact. Where `a`
    // equals it, `a` is exact as a float too, and IEEE order settles the
    // fraction and the sign of zero.
    a.cmp(&(b.trunc() as i64)).then_with(|| (a as f64).total_cmp(&b))
}

/// Wrapper giving `Value` the `Ord`/`Eq` needed for `BTreeMap` index keys.
#[derive(Debug, Clone)]
pub struct OrdValue(pub Value);

impl PartialEq for OrdValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A value seen in index order, so that a map keyed by [`OrdValue`] can be
/// searched with a borrowed `&Value` (`key as &dyn IndexKey`) instead of a
/// cloned one.
pub(crate) trait IndexKey {
    fn value(&self) -> &Value;
}

impl IndexKey for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl IndexKey for OrdValue {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl<'a> std::borrow::Borrow<dyn IndexKey + 'a> for OrdValue {
    fn borrow(&self) -> &(dyn IndexKey + 'a) {
        self
    }
}

impl PartialEq for dyn IndexKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn IndexKey + '_ {}

impl PartialOrd for dyn IndexKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn IndexKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value().total_cmp(other.value())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Blob(b) => write!(f, "x'{} bytes'", b.len()),
            Value::Date(d) => {
                write!(f, "{:04}-{:02}-{:02}", d / 10_000, d / 100 % 100, d % 100)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Real(1.5),
            Value::Text("a".into()),
            Value::Int(1),
            Value::Date(20040312),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
        assert_eq!(vals[2], Value::Real(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::Date(20040312));
        assert_eq!(vals[5], Value::Text("a".into()));
    }

    #[test]
    fn nan_has_stable_order() {
        let a = Value::Real(f64::NAN);
        let b = Value::Real(1.0);
        // total_cmp puts +NaN after all finite values.
        assert_eq!(a.total_cmp(&b), Ordering::Greater);
        assert_eq!(a.total_cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn ints_past_two_to_the_53_compare_exactly_with_reals() {
        // `2^53 + 1 as f64` rounds to 2^53, which once made the two
        // different `Int`s below both equal to the one `Real`.
        let two_53 = 1i64 << 53;
        let (above, real, at) =
            (Value::Int(two_53 + 1), Value::Real(two_53 as f64), Value::Int(two_53));
        assert_eq!(above.total_cmp(&real), Ordering::Greater);
        assert_eq!(real.total_cmp(&at), Ordering::Equal);
        assert_eq!(above.total_cmp(&at), Ordering::Greater);
        // The edges of the i64 range, fractions and signed zero.
        let cmp = |a: i64, b: f64| Value::Int(a).total_cmp(&Value::Real(b));
        assert_eq!(cmp(i64::MAX, 9_223_372_036_854_775_808.0), Ordering::Less);
        assert_eq!(cmp(i64::MIN, -9_223_372_036_854_775_808.0), Ordering::Equal);
        assert_eq!(cmp(i64::MIN, f64::NEG_INFINITY), Ordering::Greater);
        assert_eq!(cmp(i64::MAX, f64::NAN), Ordering::Less);
        assert_eq!(cmp(i64::MIN, -f64::NAN), Ordering::Greater);
        assert_eq!(cmp(two_53 + 1, two_53 as f64 + 2.0), Ordering::Less);
        assert_eq!(cmp(-3, -2.5), Ordering::Less);
        assert_eq!(cmp(-2, -2.5), Ordering::Greater);
        assert_eq!(cmp(2, 2.5), Ordering::Less);
        assert_eq!(cmp(0, -0.0), Ordering::Greater);
        assert_eq!(cmp(0, 0.0), Ordering::Equal);
        assert_eq!(cmp(0, -0.5), Ordering::Greater);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Date(20040312).to_string(), "2004-03-12");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(2.5), Value::Real(2.5));
    }
}
