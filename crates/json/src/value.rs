//! The JSON value tree.
//!
//! [`Value`] is the in-memory representation of one parsed JSON document.
//! Objects preserve insertion order (duplicate keys follow the common
//! last-wins rule at parse time). Structural equality treats objects as
//! unordered maps, which matches the paper's view of a document as an
//! *unordered set* of attribute-value pairs.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other JSON number.
    Float(f64),
    /// A JSON string.
    Str(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object; insertion-ordered, keys unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Construct an empty object.
    pub fn object() -> Self {
        Value::Object(Vec::new())
    }

    /// Insert (or overwrite) a field of an object. Panics on non-objects.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        match self {
            Value::Object(fields) => insert_field(fields, key.into(), value),
            other => panic!("Value::insert on non-object {other:?}"),
        }
        self
    }

    /// Look up a field of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number of fields (objects), elements (arrays), otherwise 0.
    pub fn len(&self) -> usize {
        match self {
            Value::Object(fields) => fields.len(),
            Value::Array(items) => items.len(),
            _ => 0,
        }
    }

    /// True when `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for `Value::Object`.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_json(&mut out);
        out
    }

    /// Serialize to compact JSON, appending to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                out.push_str(itoa_buf(*i).as_str());
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` keeps round-trippable precision for f64.
                    use fmt::Write;
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Insert into an object's field list, last-wins: a repeated key keeps its
/// first position and takes the new value.
pub(crate) fn insert_field(fields: &mut Vec<(String, Value)>, key: String, value: Value) {
    if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = value;
    } else {
        fields.push((key, value));
    }
}

fn itoa_buf(i: i64) -> String {
    i.to_string()
}

/// Escape and quote `s` as a JSON string literal.
pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => {
                // Objects compare as unordered maps.
                a.len() == b.len()
                    && a.iter()
                        .all(|(k, v)| b.iter().any(|(k2, v2)| k == k2 && v == v2))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Convenience macro for building [`Value`] objects in tests and examples.
///
/// ```
/// use ssj_json::json_obj;
/// let v = json_obj! { "User" => "A", "MsgId" => 2 };
/// assert_eq!(v.get("User").unwrap().as_str(), Some("A"));
/// ```
#[macro_export]
macro_rules! json_obj {
    ( $( $k:expr => $v:expr ),* $(,)? ) => {{
        let mut obj = $crate::Value::object();
        $( obj.insert($k, $crate::Value::from($v)); )*
        obj
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut v = Value::object();
        v.insert("a", Value::Int(1));
        v.insert("b", Value::Str("x".into()));
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c"), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn insert_overwrites() {
        let mut v = Value::object();
        v.insert("a", Value::Int(1));
        v.insert("a", Value::Int(2));
        assert_eq!(v.len(), 1);
        assert_eq!(v.get("a").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn object_equality_is_order_insensitive() {
        let mut a = Value::object();
        a.insert("x", Value::Int(1));
        a.insert("y", Value::Int(2));
        let mut b = Value::object();
        b.insert("y", Value::Int(2));
        b.insert("x", Value::Int(1));
        assert_eq!(a, b);
    }

    #[test]
    fn int_float_cross_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn serialize_simple() {
        let v = json_obj! { "a" => 1, "b" => true, "c" => "x" };
        assert_eq!(v.to_json(), r#"{"a":1,"b":true,"c":"x"}"#);
    }

    #[test]
    fn serialize_escapes() {
        let v = Value::Str("line\n\"quote\"\\\t".into());
        assert_eq!(v.to_json(), r#""line\n\"quote\"\\\t""#);
    }

    #[test]
    fn serialize_control_chars() {
        let v = Value::Str("\u{01}".into());
        assert_eq!(v.to_json(), r#""\u0001""#);
    }

    #[test]
    fn serialize_nested() {
        let mut inner = Value::object();
        inner.insert("k", Value::Int(7));
        let v = Value::Array(vec![Value::Null, inner, Value::Float(1.5)]);
        assert_eq!(v.to_json(), r#"[null,{"k":7},1.5]"#);
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
    }

    #[test]
    fn macro_builds_objects() {
        let v = json_obj! { "User" => "A", "Severity" => "Warning", "MsgId" => 2 };
        assert_eq!(v.len(), 3);
        assert_eq!(v.get("MsgId").and_then(Value::as_int), Some(2));
    }
}
