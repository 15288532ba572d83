//! Leaf scalar values — the "value" half of an attribute-value pair.
//!
//! After flattening, every attribute maps to exactly one scalar. Scalars must
//! be hashable and totally equatable so they can be interned; floats are
//! compared and hashed by their bit pattern (with `-0.0` normalized to `0.0`
//! and all NaNs collapsed to one canonical NaN).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar JSON leaf value.
#[derive(Debug, Clone)]
pub enum Scalar {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Non-integral number, normalized for hashing (see module docs).
    Float(f64),
    /// String.
    Str(String),
}

/// A borrowed view of a [`Scalar`]: the same five cases with the string
/// borrowed. This is what dictionary lookups take, so that probing for a
/// value read out of a line of JSON text needs no owned `String`.
#[derive(Debug, Clone, Copy)]
pub enum ScalarRef<'a> {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Non-integral number; compared like [`Scalar::Float`].
    Float(f64),
    /// String.
    Str(&'a str),
}

impl ScalarRef<'_> {
    /// Copy into an owned [`Scalar`] (allocates for strings only).
    pub fn to_owned(self) -> Scalar {
        match self {
            ScalarRef::Null => Scalar::Null,
            ScalarRef::Bool(b) => Scalar::Bool(b),
            ScalarRef::Int(i) => Scalar::Int(i),
            ScalarRef::Float(f) => Scalar::Float(f),
            ScalarRef::Str(s) => Scalar::Str(s.to_owned()),
        }
    }
}

impl PartialEq for ScalarRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ScalarRef::Null, ScalarRef::Null) => true,
            (ScalarRef::Bool(a), ScalarRef::Bool(b)) => a == b,
            (ScalarRef::Int(a), ScalarRef::Int(b)) => a == b,
            (ScalarRef::Float(a), ScalarRef::Float(b)) => {
                Scalar::float_bits(a) == Scalar::float_bits(b)
            }
            (ScalarRef::Str(a), ScalarRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ScalarRef<'_> {}

impl Hash for ScalarRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            ScalarRef::Null => state.write_u8(0),
            ScalarRef::Bool(b) => {
                state.write_u8(1);
                state.write_u8(b as u8);
            }
            ScalarRef::Int(i) => {
                state.write_u8(2);
                state.write_u64(i as u64);
            }
            ScalarRef::Float(f) => {
                state.write_u8(3);
                state.write_u64(Scalar::float_bits(f));
            }
            ScalarRef::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

impl Scalar {
    /// Canonical bit pattern used for float equality/hashing.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0 // normalize -0.0 to +0.0
        } else {
            f.to_bits()
        }
    }

    /// Borrow as a [`ScalarRef`].
    pub fn as_ref(&self) -> ScalarRef<'_> {
        match self {
            Scalar::Null => ScalarRef::Null,
            Scalar::Bool(b) => ScalarRef::Bool(*b),
            Scalar::Int(i) => ScalarRef::Int(*i),
            Scalar::Float(f) => ScalarRef::Float(*f),
            Scalar::Str(s) => ScalarRef::Str(s),
        }
    }

    /// Render the scalar the way it appears in JSON text (strings unquoted).
    pub fn render(&self) -> String {
        match self {
            Scalar::Null => "null".to_owned(),
            Scalar::Bool(b) => b.to_string(),
            Scalar::Int(i) => i.to_string(),
            Scalar::Float(f) => format!("{f:?}"),
            Scalar::Str(s) => s.clone(),
        }
    }

    /// Convert back to a [`crate::Value`] leaf.
    pub fn to_value(&self) -> crate::Value {
        match self {
            Scalar::Null => crate::Value::Null,
            Scalar::Bool(b) => crate::Value::Bool(*b),
            Scalar::Int(i) => crate::Value::Int(*i),
            Scalar::Float(f) => crate::Value::Float(*f),
            Scalar::Str(s) => crate::Value::Str(s.clone()),
        }
    }

    /// Build from a [`crate::Value`] leaf; `None` for arrays and objects.
    pub fn from_value(value: &crate::Value) -> Option<Scalar> {
        match value {
            crate::Value::Null => Some(Scalar::Null),
            crate::Value::Bool(b) => Some(Scalar::Bool(*b)),
            crate::Value::Int(i) => Some(Scalar::Int(*i)),
            crate::Value::Float(f) => Some(Scalar::Float(*f)),
            crate::Value::Str(s) => Some(Scalar::Str(s.clone())),
            _ => None,
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Scalar {}

impl Hash for Scalar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Scalar {
    fn from(b: bool) -> Self {
        Scalar::Bool(b)
    }
}
impl From<i64> for Scalar {
    fn from(i: i64) -> Self {
        Scalar::Int(i)
    }
}
impl From<i32> for Scalar {
    fn from(i: i32) -> Self {
        Scalar::Int(i as i64)
    }
}
impl From<f64> for Scalar {
    fn from(f: f64) -> Self {
        Scalar::Float(f)
    }
}
impl From<&str> for Scalar {
    fn from(s: &str) -> Self {
        Scalar::Str(s.to_owned())
    }
}
impl From<String> for Scalar {
    fn from(s: String) -> Self {
        Scalar::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashSet;

    #[test]
    fn equality_basics() {
        assert_eq!(Scalar::Int(1), Scalar::Int(1));
        assert_ne!(Scalar::Int(1), Scalar::Int(2));
        assert_ne!(Scalar::Int(1), Scalar::Str("1".into()));
        assert_ne!(Scalar::Bool(true), Scalar::Int(1));
    }

    #[test]
    fn float_normalization() {
        assert_eq!(Scalar::Float(0.0), Scalar::Float(-0.0));
        assert_eq!(Scalar::Float(f64::NAN), Scalar::Float(-f64::NAN));
        assert_ne!(Scalar::Float(1.0), Scalar::Float(1.0000001));
    }

    #[test]
    fn int_and_float_are_distinct_avps() {
        // The paper joins on exact value identity; 1 and 1.0 are different
        // attribute-value pairs (types differ in the JSON document).
        assert_ne!(Scalar::Int(1), Scalar::Float(1.0));
    }

    #[test]
    fn hashable_in_sets() {
        let mut s: FxHashSet<Scalar> = FxHashSet::default();
        s.insert(Scalar::Float(0.0));
        assert!(!s.insert(Scalar::Float(-0.0)));
        s.insert(Scalar::Str("x".into()));
        assert!(s.contains(&Scalar::Str("x".into())));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn render_formats() {
        assert_eq!(Scalar::Null.render(), "null");
        assert_eq!(Scalar::Bool(true).render(), "true");
        assert_eq!(Scalar::Int(-5).render(), "-5");
        assert_eq!(Scalar::Str("abc".into()).render(), "abc");
        assert_eq!(Scalar::Float(1.5).render(), "1.5");
    }

    #[test]
    fn to_value_roundtrip() {
        for s in [
            Scalar::Null,
            Scalar::Bool(false),
            Scalar::Int(9),
            Scalar::Float(2.25),
            Scalar::Str("q".into()),
        ] {
            let v = s.to_value();
            match (&s, &v) {
                (Scalar::Null, crate::Value::Null) => {}
                (Scalar::Bool(a), crate::Value::Bool(b)) => assert_eq!(a, b),
                (Scalar::Int(a), crate::Value::Int(b)) => assert_eq!(a, b),
                (Scalar::Float(a), crate::Value::Float(b)) => assert_eq!(a, b),
                (Scalar::Str(a), crate::Value::Str(b)) => assert_eq!(a, b),
                other => panic!("mismatched roundtrip {other:?}"),
            }
        }
    }
}
